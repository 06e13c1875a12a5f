#include <gtest/gtest.h>

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
  EXPECT_FALSE(cfg.segment_has_parity(true));
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
  m.has_parity = true;
  m.parity_col = 2;
  m.entries = {{100, 0xAB}, {kDeadSlot, 0}, {200, 0xCD}};
  auto p = m.serialize();
  auto back = SegmentMeta::deserialize(p);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->generation, 42u);
  EXPECT_EQ(back->sg, 3u);
  EXPECT_EQ(back->seg, 7u);
  EXPECT_TRUE(back->dirty);
  EXPECT_TRUE(back->has_parity);
  EXPECT_EQ(back->parity_col, 2);
  ASSERT_EQ(back->entries.size(), 3u);
  EXPECT_EQ(back->entries[0].lba, 100u);
  EXPECT_EQ(back->entries[1].lba, kDeadSlot);
  EXPECT_EQ(back->entries[2].crc, 0xCDu);
}

TEST(SegmentMeta, CorruptionDetected) {
  SegmentMeta m;
  m.generation = 1;
  m.entries = {{5, 6}};
  auto p = m.serialize();
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
  m.has_parity = true;
  m.parity_col = 3;
  for (u32 k = 0; k < 378; ++k) {
    SegmentMeta::Entry e;  // every 7th slot stays dead
    if (k % 7 != 3) {
      e.lba = 0x1000 + 37 * u64{k};
      e.crc = 0x9E3779B9u * (k + 1);
      e.tenant = k % 5;
    }
    m.entries.push_back(e);
  }
  const size_t size = 32 + 378 * 16 + 4;
  m.is_tail = false;
  expect_pinned(m.serialize(), size, 0x99d96f5au);
  m.is_tail = true;
  expect_pinned(m.serialize(), size, 0x376b69fcu);

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

// --- basic cache behaviour -----------------------------------------------------

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
