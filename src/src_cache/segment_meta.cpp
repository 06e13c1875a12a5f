#include "src_cache/segment_meta.hpp"

#include <cstring>

namespace srcache::src {

namespace {

// Little-endian stores at a cursor into a pre-sized buffer.
u8* store_u64(u8* p, u64 v) {
  for (int i = 0; i < 8; ++i) *p++ = static_cast<u8>(v >> (8 * i));
  return p;
}
u8* store_u32(u8* p, u32 v) {
  for (int i = 0; i < 4; ++i) *p++ = static_cast<u8>(v >> (8 * i));
  return p;
}

class Reader {
 public:
  explicit Reader(const std::vector<u8>& buf) : buf_(buf) {}
  bool u64v(u64* v) {
    if (pos_ + 8 > buf_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i)
      *v |= static_cast<u64>(buf_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return true;
  }
  bool u32v(u32* v) {
    if (pos_ + 4 > buf_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i)
      *v |= static_cast<u32>(buf_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return true;
  }
  [[nodiscard]] size_t pos() const { return pos_; }

 private:
  const std::vector<u8>& buf_;
  size_t pos_ = 0;
};

// Stores the CRC-32C of data[0, body) as the trailer at data + body.
void store_crc(u8* data, size_t body) {
  store_u32(data + body, common::crc32c(std::span<const u8>(data, body)));
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

blockdev::Payload SegmentMeta::serialize() const {
  // Header (32 bytes), 16 bytes per entry, trailing CRC-32C.
  const size_t body = 32 + entries.size() * 16;
  auto buf = std::make_shared<std::vector<u8>>(body + 4);
  u8* p = buf->data();
  p = store_u64(p, kSegmentMetaMagic);
  p = store_u64(p, generation);
  p = store_u32(p, sg);
  p = store_u32(p, seg);
  p = store_u32(p, (dirty ? 1u : 0u) | (has_parity ? 2u : 0u) |
                       (is_tail ? 4u : 0u) |
                       (static_cast<u32>(parity_col) << 8));
  p = store_u32(p, static_cast<u32>(entries.size()));
  for (const Entry& e : entries) {
    p = store_u64(p, e.lba);
    p = store_u32(p, e.crc);
    p = store_u32(p, e.tenant);
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
  if (!r.u64v(&magic) || magic != kSegmentMetaMagic) return std::nullopt;
  if (!r.u64v(&m.generation) || !r.u32v(&m.sg) || !r.u32v(&m.seg) ||
      !r.u32v(&flags) || !r.u32v(&count)) {
    return std::nullopt;
  }
  m.dirty = (flags & 1u) != 0;
  m.has_parity = (flags & 2u) != 0;
  m.is_tail = (flags & 4u) != 0;
  m.parity_col = static_cast<u8>(flags >> 8);
  m.entries.resize(count);
  for (u32 i = 0; i < count; ++i) {
    if (!r.u64v(&m.entries[i].lba) || !r.u32v(&m.entries[i].crc) ||
        !r.u32v(&m.entries[i].tenant)) {
      return std::nullopt;
    }
  }
  return m;
}

blockdev::Payload Superblock::serialize() const {
  const size_t body = 44;
  auto buf = std::make_shared<std::vector<u8>>(body + 4);
  u8* p = buf->data();
  p = store_u64(p, kSuperblockMagic);
  p = store_u64(p, create_seq);
  p = store_u32(p, num_ssds);
  p = store_u64(p, erase_group_bytes);
  p = store_u64(p, chunk_bytes);
  p = store_u64(p, region_bytes_per_ssd);
  store_crc(buf->data(), body);
  return buf;
}

std::optional<Superblock> Superblock::deserialize(const blockdev::Payload& p) {
  if (!p || !check_crc(*p)) return std::nullopt;
  Reader r(*p);
  u64 magic = 0;
  Superblock s;
  if (!r.u64v(&magic) || magic != kSuperblockMagic) return std::nullopt;
  if (!r.u64v(&s.create_seq) || !r.u32v(&s.num_ssds) ||
      !r.u64v(&s.erase_group_bytes) || !r.u64v(&s.chunk_bytes) ||
      !r.u64v(&s.region_bytes_per_ssd)) {
    return std::nullopt;
  }
  return s;
}

}  // namespace srcache::src
