#include "src_cache/segment_meta.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace srcache::src {

namespace {

constexpr size_t kEntryBytes = 16;  // lba u64, crc u32, tenant u32

// Little-endian store at a cursor into a pre-sized buffer. On a
// little-endian host it is one plain store: every seal serializes two
// images of hundreds of entries, and byte-by-byte stores made that several
// times slower.
template <class T>
u8* store_le(u8* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (size_t i = 0; i < sizeof v; ++i) p[i] = static_cast<u8>(v >> (8 * i));
  }
  return p + sizeof v;
}

// Little-endian loads from a checked record's body: everything before its
// 4-byte CRC trailer (check_crc guarantees the trailer exists).
class Reader {
 public:
  explicit Reader(const std::vector<u8>& buf)
      : buf_(buf), end_(buf.size() - 4) {}
  template <class T>
  bool get(T* v) {
    if (pos_ + sizeof(T) > end_) return false;
    *v = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
      *v |= static_cast<T>(T{buf_[pos_ + i]} << (8 * i));
    pos_ += sizeof(T);
    return true;
  }
  [[nodiscard]] size_t remaining() const { return end_ - pos_; }

 private:
  const std::vector<u8>& buf_;
  size_t end_;
  size_t pos_ = 0;
};

// Stores the CRC-32C of data[0, body) as the trailer at data + body.
void store_crc(u8* data, size_t body) {
  store_le(data + body, common::crc32c(std::span<const u8>(data, body)));
}

bool check_crc(const std::vector<u8>& buf) {
  if (buf.size() < 4) return false;
  const u32 stored = static_cast<u32>(buf[buf.size() - 4]) |
                     static_cast<u32>(buf[buf.size() - 3]) << 8 |
                     static_cast<u32>(buf[buf.size() - 2]) << 16 |
                     static_cast<u32>(buf[buf.size() - 1]) << 24;
  const u32 actual =
      common::crc32c(std::span<const u8>(buf.data(), buf.size() - 4));
  return stored == actual;
}

}  // namespace

blockdev::Payload SegmentMeta::serialize(bool tail) const {
  // Header (32 bytes), 16 bytes per entry, trailing CRC-32C.
  const size_t body = 32 + slot_lba.size() * kEntryBytes;
  auto buf = std::make_shared<std::vector<u8>>(body + 4);
  u8* p = buf->data();
  p = store_le(p, kSegmentMetaMagic);
  p = store_le(p, generation);
  p = store_le(p, sg);
  p = store_le(p, seg);
  p = store_le(p, (dirty ? 1u : 0u) | (redundant ? 2u : 0u) |
                       (tail ? 4u : 0u) | (static_cast<u32>(parity_col) << 8));
  p = store_le(p, static_cast<u32>(slot_lba.size()));
  for (size_t i = 0; i < slot_lba.size(); ++i) {
    p = store_le(p, slot_lba[i]);
    p = store_le(p, slot_crc[i]);
    p = store_le(p, u32{slot_tenant[i]});
  }
  store_crc(buf->data(), body);
  return buf;
}

std::optional<SegmentMeta> SegmentMeta::deserialize(
    const blockdev::Payload& p) {
  if (!p || !check_crc(*p)) return std::nullopt;
  Reader r(*p);
  u64 magic = 0;
  SegmentMeta m;
  u32 flags = 0, count = 0;
  if (!r.get(&magic) || magic != kSegmentMetaMagic) return std::nullopt;
  if (!r.get(&m.generation) || !r.get(&m.sg) || !r.get(&m.seg) ||
      !r.get(&flags) || !r.get(&count)) {
    return std::nullopt;
  }
  // The count comes off the media: bound it by the entries the rest of the
  // body can hold before allocating for them.
  if (count > r.remaining() / kEntryBytes) return std::nullopt;
  m.dirty = (flags & 1u) != 0;
  m.redundant = (flags & 2u) != 0;
  m.parity_col = static_cast<u8>(flags >> 8);
  m.slot_lba.resize(count);
  m.slot_crc.resize(count);
  m.slot_tenant.resize(count);
  for (u32 i = 0; i < count; ++i) {  // in bounds: count was checked above
    u32 tenant = 0;
    r.get(&m.slot_lba[i]);
    r.get(&m.slot_crc[i]);
    r.get(&tenant);
    m.slot_tenant[i] = static_cast<u16>(std::min<u32>(tenant, 0xFFFF));
  }
  return m;
}

blockdev::Payload Superblock::serialize() const {
  const size_t body = 48;
  auto buf = std::make_shared<std::vector<u8>>(body + 4);
  u8* p = buf->data();
  p = store_le(p, kSuperblockMagic);
  p = store_le(p, create_seq);
  p = store_le(p, num_ssds);
  p = store_le(p, erase_group_bytes);
  p = store_le(p, chunk_bytes);
  p = store_le(p, region_bytes_per_ssd);
  p = store_le(p, static_cast<u32>(raid) | (parity_for_clean ? 0x100u : 0u));
  store_crc(buf->data(), body);
  return buf;
}

std::optional<Superblock> Superblock::deserialize(const blockdev::Payload& p) {
  if (!p || !check_crc(*p)) return std::nullopt;
  Reader r(*p);
  u64 magic = 0;
  Superblock s;
  u32 org = 0;
  if (!r.get(&magic) || magic != kSuperblockMagic) return std::nullopt;
  if (!r.get(&s.create_seq) || !r.get(&s.num_ssds) ||
      !r.get(&s.erase_group_bytes) || !r.get(&s.chunk_bytes) ||
      !r.get(&s.region_bytes_per_ssd) || !r.get(&org)) {
    return std::nullopt;
  }
  // The RAID level in the low byte, the PC flag in bit 8, nothing else.
  s.raid = static_cast<raid::RaidLevel>(org & 0xFFu);
  s.parity_for_clean = (org & 0x100u) != 0;
  if ((org & ~0x1FFu) != 0 || s.raid > raid::RaidLevel::kRaid5)
    return std::nullopt;
  return s;
}

}  // namespace srcache::src
