#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <fstream>

#include "common/rng.hpp"
#include "src_test_util.hpp"

namespace srcache::src {
namespace {

using testutil::Rig;
using testutil::small_config;

// --- config & geometry -------------------------------------------------------

TEST(SrcConfig, DefaultsMatchPaperGeometry) {
  SrcConfig cfg;  // paper defaults
  EXPECT_EQ(cfg.chunk_blocks(), 128u);        // 512 KiB chunks
  EXPECT_EQ(cfg.slots_per_chunk(), 126u);     // minus MS and ME
  EXPECT_EQ(cfg.segments_per_sg(), 512u);     // "divided into 512 segments"
  EXPECT_EQ(cfg.sg_count(), 18u);             // 18 GB cache over 4 SSDs
  EXPECT_EQ(cfg.segment_data_slots(true), 3u * 126u);  // RAID-5 dirty
}

TEST(SrcConfig, NpcCleanSegmentsHaveMoreSlots) {
  SrcConfig cfg;
  cfg.clean_redundancy = CleanRedundancy::kNPC;
  EXPECT_EQ(cfg.segment_data_slots(false), 4u * 126u);
  cfg.clean_redundancy = CleanRedundancy::kPC;
  EXPECT_EQ(cfg.segment_data_slots(false), 3u * 126u);
}

TEST(SrcConfig, Raid0NoParityAnywhere) {
  SrcConfig cfg;
  cfg.raid = raid::RaidLevel::kRaid0;
  EXPECT_FALSE(cfg.segment_redundant(true));
  EXPECT_EQ(cfg.segment_data_slots(true), 4u * 126u);
}

TEST(SrcConfig, Raid1HalvesDataSlots) {
  SrcConfig cfg;
  cfg.raid = raid::RaidLevel::kRaid1;
  EXPECT_EQ(cfg.segment_data_slots(true), 2u * 126u);
}

TEST(SrcConfig, ValidationCatchesBadGeometry) {
  SrcConfig cfg = small_config();
  cfg.chunk_bytes = 8 * KiB;  // only MS+ME, no data
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.erase_group_bytes = cfg.chunk_bytes * 3 + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.umax = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.num_ssds = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SrcConfig, DescribeMentionsKeyChoices) {
  SrcConfig cfg;
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("RAID-5"), std::string::npos);
  EXPECT_NE(d.find("NPC"), std::string::npos);
  EXPECT_NE(d.find("Sel-GC"), std::string::npos);
}

// --- segment metadata --------------------------------------------------------

TEST(SegmentMeta, SerializeRoundTrip) {
  SegmentMeta m;
  m.generation = 42;
  m.sg = 3;
  m.seg = 7;
  m.dirty = true;
  m.redundant = true;
  m.parity_col = 2;
  m.slot_lba = {100, kDeadSlot, 200};
  m.slot_crc = {0xAB, 0, 0xCD};
  m.slot_tenant = {0, 0, 9};
  auto back = SegmentMeta::deserialize(m.serialize(/*tail=*/true));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->generation, 42u);
  EXPECT_EQ(back->sg, 3u);
  EXPECT_EQ(back->seg, 7u);
  EXPECT_TRUE(back->dirty);
  EXPECT_TRUE(back->redundant);
  EXPECT_EQ(back->parity_col, 2);
  ASSERT_EQ(back->slot_lba.size(), 3u);
  ASSERT_EQ(back->slot_crc.size(), 3u);
  ASSERT_EQ(back->slot_tenant.size(), 3u);
  EXPECT_EQ(back->slot_lba[0], 100u);
  EXPECT_EQ(back->slot_lba[1], kDeadSlot);
  EXPECT_EQ(back->slot_crc[2], 0xCDu);
  EXPECT_EQ(back->slot_tenant[2], 9u);
}

TEST(SegmentMeta, CorruptionDetected) {
  SegmentMeta m;
  m.generation = 1;
  m.slot_lba = {5};
  m.slot_crc = {6};
  m.slot_tenant = {0};
  auto p = m.serialize(/*tail=*/false);
  auto broken = std::make_shared<std::vector<u8>>(*p);
  (*broken)[10] ^= 0xFF;
  EXPECT_FALSE(SegmentMeta::deserialize(broken).has_value());
}

// The MS/ME and superblock bytes are an on-SSD format: any serializer must
// reproduce them. Pinned as the CRC-32C of each payload's body (everything
// before the trailer) plus the trailer itself, which must store that CRC
// little-endian — the CRC of a whole payload is the CRC-32C residue, the
// same for any body.
void expect_pinned(const blockdev::Payload& p, size_t size, u32 body_crc) {
  ASSERT_EQ(p->size(), size);
  const size_t body = size - 4;
  EXPECT_EQ(common::crc32c(std::span<const u8>(p->data(), body)), body_crc);
  u32 trailer = 0;
  for (int i = 0; i < 4; ++i) trailer |= u32{(*p)[body + i]} << (8 * i);
  EXPECT_EQ(trailer, body_crc);
}

TEST(SegmentMeta, SerializedBytesArePinned) {
  SegmentMeta m;
  m.generation = 0x0123456789ABCDEFull;
  m.sg = 17;
  m.seg = 511;
  m.dirty = true;
  m.redundant = true;
  m.parity_col = 3;
  for (u32 k = 0; k < 378; ++k) {
    const bool live = k % 7 != 3;  // every 7th slot stays dead
    m.slot_lba.push_back(live ? 0x1000 + 37 * u64{k} : kDeadSlot);
    m.slot_crc.push_back(live ? 0x9E3779B9u * (k + 1) : 0);
    m.slot_tenant.push_back(live ? k % 5 : 0);
  }
  const size_t size = 32 + 378 * 16 + 4;
  expect_pinned(m.serialize(/*tail=*/false), size, 0x99d96f5au);
  expect_pinned(m.serialize(/*tail=*/true), size, 0x376b69fcu);

  Superblock sb;
  sb.create_seq = 0x1122334455667788ull;
  sb.num_ssds = 6;
  sb.erase_group_bytes = 256 * MiB;
  sb.chunk_bytes = 512 * KiB;
  sb.region_bytes_per_ssd = 0x0000001234567000ull;
  expect_pinned(sb.serialize(), 48, 0xf8083015u);
}

TEST(SegmentMeta, RejectsWrongMagic) {
  Superblock sb;
  EXPECT_FALSE(SegmentMeta::deserialize(sb.serialize()).has_value());
}

// Little-endian field access and CRC re-stamping for hand-made records.
u64 load_le(const std::vector<u8>& b, size_t at, int bytes) {
  u64 v = 0;
  for (int i = 0; i < bytes; ++i) v |= u64{b[at + i]} << (8 * i);
  return v;
}
void store_le(std::vector<u8>& b, size_t at, int bytes, u64 v) {
  for (int i = 0; i < bytes; ++i) b[at + i] = static_cast<u8>(v >> (8 * i));
}
// Rewrites the trailer with the CRC-32C of everything before it, so a
// mutated record reaches the parser instead of failing its checksum.
void restamp(std::vector<u8>& b) {
  if (b.size() < 4) return;
  const size_t body = b.size() - 4;
  store_le(b, body, 4, common::crc32c(std::span<const u8>(b.data(), body)));
}

// Caps this process's address space at its current size plus `headroom`
// while in scope, so an allocation past it throws std::bad_alloc instead
// of taking the memory. A no-op under ASan and TSan, whose shadow
// reservations exceed any such cap.
class AddressSpaceCap {
 public:
  explicit AddressSpaceCap(u64 headroom) {
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    std::ifstream statm("/proc/self/statm");
    u64 pages = 0;
    if (!(statm >> pages) || getrlimit(RLIMIT_AS, &old_) != 0) return;
    rlimit cap = old_;
    cap.rlim_cur = pages * static_cast<u64>(sysconf(_SC_PAGESIZE)) + headroom;
    if (cap.rlim_cur < old_.rlim_cur) armed_ = setrlimit(RLIMIT_AS, &cap) == 0;
#endif
  }
  ~AddressSpaceCap() {
    if (armed_) setrlimit(RLIMIT_AS, &old_);
  }
  AddressSpaceCap(const AddressSpaceCap&) = delete;
  AddressSpaceCap& operator=(const AddressSpaceCap&) = delete;

 private:
  rlimit old_{};
  bool armed_ = false;
};

// A CRC-valid MS whose slot count (read off the media) claims 0x0FFFFFFF
// entries, 4 GiB of them, in a 36-byte payload must be rejected before
// anything is allocated for those entries.
TEST(SegmentMeta, SlotCountBoundedByPayload) {
  std::vector<u8> b(36);
  store_le(b, 0, 8, kSegmentMetaMagic);
  store_le(b, 8, 8, 1);            // generation
  store_le(b, 28, 4, 0x0FFFFFFF);  // slot count
  restamp(b);
  const auto p = std::make_shared<std::vector<u8>>(b);
  std::optional<SegmentMeta> back;
  {
    AddressSpaceCap cap(1 * GiB);
    back = SegmentMeta::deserialize(p);
  }
  EXPECT_FALSE(back.has_value());
}

TEST(SegmentMeta, TenantClampsToU16) {
  SegmentMeta m;
  m.generation = 5;
  m.slot_lba = {10, 11};
  m.slot_crc = {0, 0};
  m.slot_tenant = {0, 0};
  std::vector<u8> b = *m.serialize(/*tail=*/false);
  store_le(b, 32 + 12, 4, 0x12345);  // entry 0's tenant, a u32 on SSD
  store_le(b, 48 + 12, 4, 0xFFFE);
  restamp(b);
  const auto back =
      SegmentMeta::deserialize(std::make_shared<std::vector<u8>>(b));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->slot_tenant[0], 0xFFFFu);
  EXPECT_EQ(back->slot_tenant[1], 0xFFFEu);
}

// Seeded mutation fuzzing of the two on-SSD parsers over a fixed budget:
// bit flips (half of them in the 32-byte header, where the flags and the
// slot count live) and truncations of valid records, each re-stamped so it
// passes the CRC. Every mutant is rejected or parses to a record that
// matches its bytes: a superblock re-serializes to them, and a segment
// record holds exactly as many slots as its count field says.
TEST(SegmentMeta, MutatedRecordsParseOrReject) {
  std::vector<std::vector<u8>> seeds;
  for (const u32 slots : {0u, 1u, 37u}) {
    SegmentMeta m;
    m.generation = 100 + slots;
    m.sg = 3;
    m.seg = slots % 8;
    m.dirty = slots % 2 == 1;
    m.redundant = true;
    m.parity_col = 1;
    for (u32 k = 0; k < slots; ++k) {
      m.slot_lba.push_back(k % 5 == 0 ? kDeadSlot : 1000 + k);
      m.slot_crc.push_back(0x9E3779B9u * k);
      m.slot_tenant.push_back(k % 3);
    }
    seeds.push_back(*m.serialize(/*tail=*/slots == 1));
  }
  Superblock sb;
  sb.create_seq = 1;
  sb.num_ssds = 4;
  sb.erase_group_bytes = 256 * MiB;
  sb.chunk_bytes = 512 * KiB;
  sb.region_bytes_per_ssd = 4608ull * MiB;
  const std::vector<u8> super = *sb.serialize();

  common::Xoshiro256 rng(0x5EED);
  u64 accepted = 0, rejected = 0;
  AddressSpaceCap cap(1 * GiB);  // a count the parser trusts fails fast
  for (int i = 0; i < 10000; ++i) {
    const bool is_super = i % 4 == 3;
    std::vector<u8> b = is_super ? super : seeds[rng.below(seeds.size())];
    if (rng.below(4) == 0) {
      b.resize(rng.below(b.size()));
    } else {
      const size_t body = b.size() - 4;
      for (u64 f = 1 + rng.below(3); f > 0; --f) {
        const size_t at =
            rng.below(rng.below(2) == 0 ? std::min<size_t>(32, body) : body);
        b[at] ^= static_cast<u8>(1u << rng.below(8));
      }
    }
    restamp(b);
    const auto p = std::make_shared<std::vector<u8>>(b);
    if (is_super) {
      const auto s = Superblock::deserialize(p);
      if (!s.has_value()) {
        ++rejected;
        continue;
      }
      ++accepted;
      ASSERT_EQ(*s->serialize(), b) << "input " << i;
      continue;
    }
    const auto m = SegmentMeta::deserialize(p);
    if (!m.has_value()) {
      ++rejected;
      continue;
    }
    ++accepted;
    const u64 count = load_le(b, 28, 4);
    ASSERT_LE(32 + 16 * count + 4, b.size()) << "input " << i;
    ASSERT_EQ(m->slot_lba.size(), count) << "input " << i;
    ASSERT_EQ(m->slot_crc.size(), count) << "input " << i;
    ASSERT_EQ(m->slot_tenant.size(), count) << "input " << i;
    for (u64 k = 0; k < count; ++k)
      ASSERT_EQ(m->slot_lba[k], load_le(b, 32 + 16 * k, 8)) << "input " << i;
  }
  // The budget reaches both verdicts on both parsers' inputs.
  EXPECT_GT(accepted, 2000u);
  EXPECT_GT(rejected, 2000u);
}

TEST(SuperblockMeta, RoundTrip) {
  Superblock sb;
  sb.create_seq = 9;
  sb.num_ssds = 4;
  sb.erase_group_bytes = 256 * MiB;
  sb.chunk_bytes = 512 * KiB;
  sb.region_bytes_per_ssd = 4608ull * MiB;
  auto back = Superblock::deserialize(sb.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_ssds, 4u);
  EXPECT_EQ(back->erase_group_bytes, 256 * MiB);
}

// --- basic cache behaviour ---------------------------------------------------

TEST(SrcCache, StartsEmpty) {
  Rig rig;
  EXPECT_EQ(rig.cache->cached_blocks(), 0u);
  EXPECT_EQ(rig.cache->utilization(), 0.0);
  EXPECT_EQ(rig.cache->free_sg_count(), rig.cfg.sg_count() - 1);
}

TEST(SrcCache, WriteLandsInDirtyBuffer) {
  Rig rig;
  rig.write(0, 100);
  EXPECT_EQ(rig.cache->residence(100), SrcCache::Residence::kDirtyBuffer);
  EXPECT_EQ(rig.cache->cached_blocks(), 1u);
}

TEST(SrcCache, ReadYourWriteFromBuffer) {
  Rig rig;
  const u64 tag = 0xBEEF;
  rig.write(0, 100, 1, &tag);
  u64 out = 0;
  rig.read(10, 100, 1, &out);
  EXPECT_EQ(out, tag);
  EXPECT_EQ(rig.cache->stats().read_hit_blocks, 1u);
}

TEST(SrcCache, BufferSealsWhenFull) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  for (u64 i = 0; i < cap; ++i) rig.write(0, i);
  EXPECT_EQ(rig.cache->extra().segments_written, 1u);
  EXPECT_EQ(rig.cache->residence(0), SrcCache::Residence::kCachedDirty);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcCache, ReadYourWriteFromSsd) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  std::vector<u64> tags(cap);
  for (u64 i = 0; i < cap; ++i) {
    tags[i] = 0x1000 + i;
    rig.write(0, i, 1, &tags[i]);
  }
  for (u64 i = 0; i < cap; ++i) {
    u64 out = 0;
    rig.read(1000, i, 1, &out);
    ASSERT_EQ(out, tags[i]) << i;
  }
}

TEST(SrcCache, ReadMissFetchesFromPrimary) {
  Rig rig;
  const std::vector<u64> ptags = {4242};
  rig.primary->write(0, 500, 1, ptags);
  u64 out = 0;
  const auto done = rig.read(0, 500, 1, &out);
  EXPECT_EQ(out, 4242u);
  EXPECT_GE(done, 5 * sim::kMs);  // waited for the disk
  EXPECT_EQ(rig.cache->stats().read_miss_blocks, 1u);
  // Fetched data is staged as clean.
  EXPECT_EQ(rig.cache->residence(500), SrcCache::Residence::kCleanBuffer);
}

TEST(SrcCache, SecondReadOfMissIsHit) {
  Rig rig;
  rig.read(0, 500);
  const auto t2 = rig.read(sim::kSec, 500);
  EXPECT_LT(t2 - sim::kSec, 1 * sim::kMs);  // RAM/SSD speed, not disk
  EXPECT_EQ(rig.cache->stats().read_hit_blocks, 1u);
}

TEST(SrcCache, WriteOverCleanPromotesToDirty) {
  Rig rig;
  rig.read(0, 700);  // clean
  rig.write(1, 700);
  EXPECT_EQ(rig.cache->residence(700), SrcCache::Residence::kDirtyBuffer);
  EXPECT_EQ(rig.cache->stats().write_hit_blocks, 1u);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcCache, OverwriteInBufferInPlace) {
  Rig rig;
  const u64 t1 = 1, t2 = 2;
  rig.write(0, 900, 1, &t1);
  rig.write(1, 900, 1, &t2);
  EXPECT_EQ(rig.cache->cached_blocks(), 1u);
  u64 out = 0;
  rig.read(2, 900, 1, &out);
  EXPECT_EQ(out, t2);
}

TEST(SrcCache, OverwriteOnSsdInvalidatesOldSlot) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  for (u64 i = 0; i < cap; ++i) rig.write(0, i);  // sealed
  const u64 t2 = 0xFEED;
  rig.write(1, 5, 1, &t2);  // overwrite a sealed block
  EXPECT_EQ(rig.cache->residence(5), SrcCache::Residence::kDirtyBuffer);
  u64 out = 0;
  rig.read(2, 5, 1, &out);
  EXPECT_EQ(out, t2);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcCache, PartialSegmentOnTimeout) {
  SrcConfig cfg = small_config();
  cfg.twait = 100 * sim::kUs;
  Rig rig(cfg);
  rig.write(0, 1);
  EXPECT_EQ(rig.cache->extra().segments_written, 0u);
  // A later request (read) past TWAIT seals the partial dirty segment.
  rig.read(10 * sim::kMs, 2);
  EXPECT_EQ(rig.cache->extra().segments_written, 1u);
  EXPECT_EQ(rig.cache->extra().partial_segments, 1u);
  EXPECT_EQ(rig.cache->residence(1), SrcCache::Residence::kCachedDirty);
}

TEST(SrcCache, AppFlushSealsAndFlushes) {
  Rig rig;
  rig.write(0, 1);
  const auto before = rig.ssds[0]->stats().flushes;
  rig.cache->flush(1000);
  EXPECT_GT(rig.ssds[0]->stats().flushes, before);
  EXPECT_EQ(rig.cache->residence(1), SrcCache::Residence::kCachedDirty);
  EXPECT_EQ(rig.cache->stats().app_flushes, 1u);
}

TEST(SrcCache, SegmentWriteTouchesAllSsds) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  for (u64 i = 0; i < cap; ++i) rig.write(0, i);
  for (auto& ssd : rig.ssds) {
    // Superblock (format) + MS + 6 data rows + ME = one chunk per SSD.
    EXPECT_EQ(ssd->stats().write_blocks, rig.cfg.chunk_blocks() + 1);
  }
}

TEST(SrcCache, FlushPerSegmentIssuesMoreFlushes) {
  SrcConfig per_seg = small_config();
  per_seg.flush_control = FlushControl::kPerSegment;
  Rig a(per_seg);
  Rig b(small_config());  // per-SG
  const u64 cap = a.cfg.segment_data_slots(true);
  for (u64 i = 0; i < 3 * cap; ++i) {
    a.write(0, i);
    b.write(0, i);
  }
  EXPECT_GT(a.cache->extra().flushes_issued, b.cache->extra().flushes_issued);
}

TEST(SrcCache, CleanBufferSealsIntoCleanSegment) {
  Rig rig;
  const u64 clean_cap = rig.cfg.segment_data_slots(false);
  for (u64 i = 0; i < clean_cap; ++i) rig.read(0, 10000 + i);
  EXPECT_EQ(rig.cache->extra().clean_segments, 1u);
  EXPECT_EQ(rig.cache->residence(10000), SrcCache::Residence::kCachedClean);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcCache, MultiBlockRequestsSplitCorrectly) {
  Rig rig;
  std::vector<u64> tags = {1, 2, 3, 4, 5, 6, 7, 8};
  rig.write(0, 2000, 8, tags.data());
  std::vector<u64> out(8, 0);
  rig.read(1, 2000, 8, out.data());
  EXPECT_EQ(out, tags);
  EXPECT_EQ(rig.cache->stats().app_write_blocks, 8u);
}

TEST(SrcCache, ThrottleBoundsInflightSegments) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  // Writes issued at t=0: each full buffer seals into a segment write still
  // in flight. No ack waits until the bound is reached; the write sealing
  // the buffer that reaches it waits for the first segment write.
  const u64 sealing = SrcCache::kMaxInflightSegmentWrites * cap - 1;
  sim::SimTime before = 0;
  for (u64 i = 0; i < sealing; ++i) before = std::max(before, rig.write(0, i));
  EXPECT_LT(before, 100 * sim::kUs);
  EXPECT_GT(rig.write(0, sealing), 100 * sim::kUs);
}

TEST(SrcCache, ConsistencyAcrossMixedWorkload) {
  Rig rig;
  common::Xoshiro256 rng(3);
  sim::SimTime t = 0;
  for (int i = 0; i < 3000; ++i) {
    const u64 lba = rng.below(4000);
    if (rng.chance(0.6)) {
      t = rig.write(t, lba, static_cast<u32>(rng.range(1, 4)));
    } else {
      t = rig.read(t, lba, static_cast<u32>(rng.range(1, 4)));
    }
  }
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok())
      << rig.cache->verify_consistency().to_string();
}

}  // namespace
}  // namespace srcache::src
