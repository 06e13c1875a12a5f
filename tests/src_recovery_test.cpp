#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "src_test_util.hpp"

namespace srcache::src {
namespace {

using testutil::Rig;
using testutil::small_config;

TEST(SrcRecovery, EmptyCacheRecovers) {
  Rig rig;
  rig.reattach();  // crash with nothing written
  EXPECT_TRUE(rig.cache->recover(0).is_ok());
  EXPECT_EQ(rig.cache->cached_blocks(), 0u);
  EXPECT_EQ(rig.cache->free_sg_count(), rig.cfg.sg_count() - 1);
}

TEST(SrcRecovery, SealedDirtyDataSurvivesCrash) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  std::vector<u64> tags(cap);
  for (u64 i = 0; i < cap; ++i) {
    tags[i] = 0x9000 + i;
    rig.write(0, i, 1, &tags[i]);
  }
  rig.reattach();  // crash: all RAM state gone
  ASSERT_TRUE(rig.cache->recover(0).is_ok());
  EXPECT_EQ(rig.cache->cached_blocks(), cap);
  for (u64 i = 0; i < cap; ++i) {
    ASSERT_EQ(rig.cache->residence(i), SrcCache::Residence::kCachedDirty) << i;
    u64 out = 0;
    rig.read(1000, i, 1, &out);
    ASSERT_EQ(out, tags[i]) << i;
  }
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcRecovery, CleanDataPersists) {
  // Unlike Bcache/Flashcache (Table 5), SRC keeps clean data across
  // restarts because clean segments carry full metadata too.
  Rig rig;
  const u64 clean_cap = rig.cfg.segment_data_slots(false);
  const std::vector<u64> ptag = {777};
  rig.primary->write(0, 100000, 1, ptag);
  sim::SimTime t = 0;
  for (u64 i = 0; i < clean_cap; ++i) t = rig.read(t, 100000 + i);
  ASSERT_EQ(rig.cache->residence(100000), SrcCache::Residence::kCachedClean);
  rig.reattach();
  sim::SimTime recovered_at = 0;
  ASSERT_TRUE(rig.cache->recover(0, &recovered_at).is_ok());
  EXPECT_EQ(rig.cache->residence(100000), SrcCache::Residence::kCachedClean);
  u64 out = 0;
  const auto done = rig.read(recovered_at, 100000, 1, &out);
  EXPECT_EQ(out, 777u);
  // Served from SSD, not the disk.
  EXPECT_LT(done - recovered_at, 5 * sim::kMs);
}

TEST(SrcRecovery, BufferedDataIsLostWithinTwaitWindow) {
  Rig rig;
  rig.write(0, 42);  // still in the segment buffer
  rig.reattach();
  ASSERT_TRUE(rig.cache->recover(0).is_ok());
  EXPECT_EQ(rig.cache->residence(42), SrcCache::Residence::kAbsent);
}

TEST(SrcRecovery, NewestGenerationWinsForRewrittenBlocks) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  const u64 old_tag = 1, new_tag = 2;
  rig.write(0, 7, 1, &old_tag);
  for (u64 i = 0; i < cap - 1; ++i) rig.write(0, 1000 + i);  // seal #1
  rig.write(1, 7, 1, &new_tag);
  for (u64 i = 0; i < cap - 1; ++i) rig.write(1, 2000 + i);  // seal #2
  rig.reattach();
  ASSERT_TRUE(rig.cache->recover(0).is_ok());
  u64 out = 0;
  rig.read(10, 7, 1, &out);
  EXPECT_EQ(out, new_tag);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

// (generation, SG) of every sealed copy of `lba` on the SSDs, read from
// each segment's MS on SSD 0.
std::vector<std::pair<u64, u32>> sealed_copies(Rig& rig, u64 lba) {
  std::vector<std::pair<u64, u32>> copies;
  for (u32 s = 1; s < rig.cfg.sg_count(); ++s) {
    for (u32 g = 0; g < rig.cfg.segments_per_sg(); ++g) {
      const u64 ms = s * rig.cfg.eg_blocks() + g * rig.cfg.chunk_blocks();
      sim::SimTime done = 0;
      const auto p = rig.ssds[0]->read_payload(0, ms, &done);
      if (!p.is_ok()) continue;
      const auto m = SegmentMeta::deserialize(p.value());
      if (!m.has_value()) continue;
      for (const u64 l : m->slot_lba)
        if (l == lba) copies.emplace_back(m->generation, s);
    }
  }
  std::sort(copies.begin(), copies.end());
  return copies;
}

// A reused SG holds a block's newest copy below the SG of an older copy,
// so the recovery scan meets the newest copy first: it must keep it and
// mark the older copy's slot dead.
TEST(SrcRecovery, NewestCopyInLowerSgWins) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kS2D;
  cfg.victim = VictimPolicy::kFifo;
  Rig rig(cfg);
  const u64 seg_slots = cfg.segment_data_slots(true);
  const u64 per_sg = cfg.segments_per_sg() * seg_slots;
  const u64 old_tag = 1, new_tag = 2;
  sim::SimTime t = 0;
  u64 filler = 1000;
  // Distinct filler blocks fill whole segments around the two copies: the
  // old one seals into the fifth SG written, and FIFO reclaims hand SG 1
  // back as the sixteenth, which takes the new one.
  for (u64 i = 0; i < 4 * per_sg; ++i) t = rig.write(t, filler++);
  t = rig.write(t, 7, 1, &old_tag);
  for (u64 i = 1; i < 11 * per_sg; ++i) t = rig.write(t, filler++);
  t = rig.write(t, 7, 1, &new_tag);
  for (u64 i = 1; i < seg_slots; ++i) t = rig.write(t, filler++);

  const auto copies = sealed_copies(rig, 7);
  ASSERT_EQ(copies.size(), 2u);
  ASSERT_LT(copies[1].second, copies[0].second) << "newest copy not lower";
  rig.reattach();
  ASSERT_TRUE(rig.cache->recover(0).is_ok());
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok())
      << rig.cache->verify_consistency().to_string();
  u64 out = 0;
  rig.read(t, 7, 1, &out);
  EXPECT_EQ(out, new_tag);
}

TEST(SrcRecovery, TornSegmentDiscarded) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  // First, a complete segment.
  for (u64 i = 0; i < cap; ++i) rig.write(0, i);
  // Then a torn one: crash after MS, before data/ME.
  rig.cache->schedule_crash(rig.cache->seals(),
                            SrcCache::CrashPoint::kAfterMs);
  for (u64 i = 0; i < cap; ++i) rig.write(1, 5000 + i);
  rig.reattach();
  ASSERT_TRUE(rig.cache->recover(0).is_ok());
  // Complete segment recovered, torn one discarded.
  EXPECT_EQ(rig.cache->residence(0), SrcCache::Residence::kCachedDirty);
  EXPECT_EQ(rig.cache->residence(5000), SrcCache::Residence::kAbsent);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcRecovery, TornAfterDataAlsoDiscarded) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  rig.cache->schedule_crash(rig.cache->seals(),
                            SrcCache::CrashPoint::kAfterData);
  for (u64 i = 0; i < cap; ++i) rig.write(0, i);
  rig.reattach();
  ASSERT_TRUE(rig.cache->recover(0).is_ok());
  EXPECT_EQ(rig.cache->cached_blocks(), 0u);
}

TEST(SrcRecovery, CorruptSuperblockRejected) {
  Rig rig;
  for (auto& ssd : rig.ssds) ssd->corrupt(0);  // superblock block on each
  rig.reattach();
  const Status s = rig.cache->recover(0);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kCorrupted);
}

TEST(SrcRecovery, SuperblockSurvivesSingleSsdCorruption) {
  Rig rig;
  rig.ssds[0]->corrupt(0);  // only one replica damaged
  rig.reattach();
  EXPECT_TRUE(rig.cache->recover(0).is_ok());
}

TEST(SrcRecovery, GeometryMismatchRejected) {
  Rig rig;
  SrcConfig other = rig.cfg;
  other.chunk_bytes = 64 * KiB;
  other.erase_group_bytes = 512 * KiB;
  std::vector<blockdev::BlockDevice*> devs;
  for (auto& s : rig.ssds) devs.push_back(s.get());
  SrcCache wrong(other, devs, rig.primary.get());
  EXPECT_EQ(wrong.recover(0).code(), ErrorCode::kInvalidArgument);
}

TEST(SrcRecovery, ReclaimedSgNotResurrected) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kS2D;
  cfg.victim = VictimPolicy::kFifo;
  Rig rig(cfg);
  const u64 per_sg = cfg.segments_per_sg() * cfg.segment_data_slots(true);
  const u64 tag = 0xCAFE;
  rig.write(0, 0, 1, &tag);
  // Fill far enough that block 0's SG is reclaimed (destaged + trimmed).
  sim::SimTime t = 0;
  for (u64 i = 0; i < per_sg * (cfg.sg_count() + 1); ++i)
    t = rig.write(t, 10 + i);
  ASSERT_EQ(rig.cache->residence(0), SrcCache::Residence::kAbsent);
  rig.reattach();
  ASSERT_TRUE(rig.cache->recover(0).is_ok());
  // The trimmed segment's metadata must not bring the block back.
  EXPECT_EQ(rig.cache->residence(0), SrcCache::Residence::kAbsent);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcRecovery, WritesContinueAfterRecovery) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  for (u64 i = 0; i < cap; ++i) rig.write(0, i);
  rig.reattach();
  ASSERT_TRUE(rig.cache->recover(0).is_ok());
  // Cache is fully usable: fill several more SGs.
  sim::SimTime t = 0;
  for (u64 i = 0; i < cap * 20; ++i) t = rig.write(t, 10000 + i);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok())
      << rig.cache->verify_consistency().to_string();
}

TEST(SrcRecovery, RandomWorkloadCrashRecoverEquivalence) {
  // Property: after crash+recover, every block that was in a *sealed*
  // segment reads back with its last sealed value.
  Rig rig;
  common::Xoshiro256 rng(23);
  std::unordered_map<u64, u64> model;  // expectations, maintained via tags
  sim::SimTime t = 0;
  for (int i = 0; i < 4000; ++i) {
    const u64 lba = rng.below(3000);
    const u64 tag = rng.next() | 1;
    t = rig.write(t, lba, 1, &tag);
    model[lba] = tag;
  }
  // Snapshot which blocks are sealed (on SSD) before the crash.
  std::vector<std::pair<u64, u64>> sealed;
  for (const auto& [lba, tag] : model) {
    if (rig.cache->residence(lba) == SrcCache::Residence::kCachedDirty)
      sealed.emplace_back(lba, tag);
  }
  ASSERT_FALSE(sealed.empty());
  rig.reattach();
  ASSERT_TRUE(rig.cache->recover(0).is_ok());
  for (const auto& [lba, tag] : sealed) {
    u64 out = 0;
    rig.read(1000, lba, 1, &out);
    ASSERT_EQ(out, tag) << "lba " << lba;
  }
}

// A flush makes every acknowledged write durable, including the Sel-GC
// copies of blocks that earlier seals made durable: reclaiming their victim
// trims it, so a copy the flush leaves in RAM is lost at a crash. Several
// of these thirty skewed random-write runs reclaim an SG inside the flush.
TEST(SrcRecovery, FlushedWritesSurviveCrash) {
  for (u64 seed = 1; seed <= 10; ++seed) {
    for (const u64 writes : {10000, 20000, 40000}) {
      Rig rig;
      common::Xoshiro256 rng(seed);
      std::unordered_map<u64, u64> model;
      sim::SimTime t = 0;
      for (u64 i = 0; i < writes; ++i) {
        const u64 lba = rng.below(5) < 4 ? rng.below(8000) : rng.below(40000);
        const u64 tag = seed << 32 | (i + 1);
        rig.write(t, lba, 1, &tag);
        model[lba] = tag;
        t += 50 * sim::kUs;
      }
      rig.cache->flush(t);
      rig.reattach();
      ASSERT_TRUE(rig.cache->recover(0).is_ok());
      u64 lost = 0;
      for (const auto& [lba, tag] : model) {
        u64 out = 0;
        rig.read(t, lba, 1, &out);
        lost += out != tag;
      }
      EXPECT_EQ(lost, 0u) << "seed " << seed << ", " << writes << " writes";
    }
  }
}

}  // namespace
}  // namespace srcache::src
