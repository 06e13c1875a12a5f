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
      const u64 ms = rig.cfg.layout().ms_block(s, g);
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

// Cuts power `after` device commands into the seal of `cap` writes of tag
// 0x5000 + i at lba 5000 + i, each SSD taking MS, data and ME in turn, then
// reboots and recovers. Returns the torn segments recovery discarded.
u64 cut_into_seal(Rig& rig, u64 after) {
  const u64 cap = rig.cfg.segment_data_slots(true);
  const u64 seal = rig.rail.log.size();
  rig.rail.budget = seal + after;
  for (u64 i = 0; i < cap; ++i) {
    const u64 tag = 0x5000 + i;
    rig.write(1, 5000 + i, 1, &tag);
  }
  EXPECT_TRUE(rig.rail.off);
  EXPECT_EQ(rig.rail.log.at(seal), blockdev::DeviceOp::kWritePayload);
  rig.rail.restore();
  rig.reattach();
  EXPECT_TRUE(rig.cache->recover(0).is_ok());
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
  return rig.cache->extra().torn_segments_discarded;
}

TEST(SrcRecovery, TornSegmentDiscarded) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  // First, a complete segment.
  for (u64 i = 0; i < cap; ++i) rig.write(0, i);
  // Then a torn one: the cut lands after the first SSD's MS.
  EXPECT_EQ(cut_into_seal(rig, 1), 1u);
  // Complete segment recovered, torn one discarded.
  EXPECT_EQ(rig.cache->residence(0), SrcCache::Residence::kCachedDirty);
  EXPECT_EQ(rig.cache->residence(5000), SrcCache::Residence::kAbsent);
}

TEST(SrcRecovery, TornAfterDataAlsoDiscarded) {
  Rig rig;
  EXPECT_EQ(cut_into_seal(rig, 2), 1u);  // the first SSD's MS and data
  EXPECT_EQ(rig.cache->cached_blocks(), 0u);
}

// A stripe cut between SSDs is kept only where its redundancy rebuilds the
// SSDs still lacking their chunks: none on RAID-0, one on RAID-5, one per
// mirror pair on RAID-1 (SrcCache mirrors SSD d onto d + 2). The first row,
// SSD 0 whole and nothing else, was kept before recovery read every SSD.
TEST(SrcRecovery, CutStripeKeptOnlyWhereRedundancyRebuilds) {
  struct Row {
    raid::RaidLevel raid;
    u64 after;  // commands into the seal: three per whole SSD
    bool kept;
  };
  for (const Row& row : {Row{raid::RaidLevel::kRaid5, 3, false},
                         Row{raid::RaidLevel::kRaid5, 9, true},
                         Row{raid::RaidLevel::kRaid1, 5, false},
                         Row{raid::RaidLevel::kRaid1, 6, true},
                         Row{raid::RaidLevel::kRaid0, 11, false}}) {
    SCOPED_TRACE(::testing::Message() << raid::to_string(row.raid)
                                      << ", cut after " << row.after);
    Rig rig(small_config(row.raid));
    const u64 cap = rig.cfg.segment_data_slots(true);
    EXPECT_EQ(cut_into_seal(rig, row.after), row.kept ? 0u : 1u);
    EXPECT_EQ(rig.cache->cached_blocks(), row.kept ? cap : 0u);
    if (!row.kept) continue;
    sim::SimTime t = 0;
    for (u64 i = 0; i < cap; ++i) {
      u64 out = 0;
      t = rig.read(t, 5000 + i, 1, &out);
      EXPECT_EQ(out, 0x5000 + i) << i;
    }
    EXPECT_EQ(rig.cache->extra().unrecoverable_blocks, 0u);
  }
}

// One corrupted MS replica on a RAID-5 segment is one SSD lacking a valid
// pair, which parity covers: the segment is still recovered whole.
TEST(SrcRecovery, CorruptMsReplicaStillRecovered) {
  Rig rig;
  const u64 cap = rig.cfg.segment_data_slots(true);
  std::vector<u64> tags(cap);
  for (u64 i = 0; i < cap; ++i) {
    tags[i] = 0x7000 + i;
    rig.write(0, i, 1, &tags[i]);
  }
  const u64 ms = rig.cfg.layout().ms_block(1, 0);  // SG 1's first segment
  ASSERT_TRUE(rig.ssd_ptrs()[1]->read_payload(0, ms).is_ok());
  rig.ssds[1]->corrupt(ms);
  rig.reattach();
  ASSERT_TRUE(rig.cache->recover(0).is_ok());
  EXPECT_EQ(rig.cache->extra().torn_segments_discarded, 0u);
  EXPECT_EQ(rig.cache->cached_blocks(), cap);
  for (u64 i = 0; i < cap; ++i) {
    u64 out = 0;
    rig.read(1000, i, 1, &out);
    EXPECT_EQ(out, tags[i]) << i;
  }
}

// A cut inside a seal whose SG allocation reclaims with Sel-GC copies
// staged: the cache runs on unaware, so the seal's drain loop still writes
// the copies out (into dropped commands) and the replay returns; no device
// takes a media command after the cut; and the untrimmed victim recovers.
TEST(SrcRecovery, CutInsideSealWithSelGcCopiesStaged) {
  // One-block writes over 1,000 LBAs, so the cache fills with dead copies
  // and the first reclaim, below UMAX, keeps the victim's live blocks.
  // Returns the rail's command count before the write that `done` stops at.
  const auto drive = [](Rig& rig, const auto& done) {
    common::Xoshiro256 rng(7);
    sim::SimTime t = 0;
    for (u64 i = 0; i < 100000; ++i) {
      const u64 mark = rig.rail.log.size();
      const u64 tag = rng.next() | 1;
      rig.write(t, rng.below(1000), 1, &tag);
      t += 50 * sim::kUs;
      if (done()) return mark;
    }
    return ~u64{0};
  };
  Rig base;
  const u64 mark =
      drive(base, [&] { return base.cache->extra().sg_reclaims > 0; });
  ASSERT_NE(mark, ~u64{0});
  ASSERT_EQ(base.cache->extra().s2s_reclaims, 1u);
  ASSERT_GT(base.cache->stats().gc_copy_blocks, 0u);
  const auto& log = base.rail.log;
  const auto trim = std::find(log.begin() + static_cast<long>(mark), log.end(),
                              blockdev::DeviceOp::kTrim);
  ASSERT_NE(trim, log.end());
  const u64 cut = static_cast<u64>(trim - log.begin());

  Rig rig;
  rig.rail.budget = cut;  // the victim's first TRIM
  ASSERT_NE(drive(rig, [&] { return rig.rail.off; }), ~u64{0});
  u64 media = 0;
  for (const auto& d : rig.ssds) {
    media += d->stats().write_ops + d->stats().trim_ops + d->stats().flushes;
  }
  const blockdev::DeviceStats& p = rig.primary->stats();
  EXPECT_EQ(media + p.write_ops + p.trim_ops + p.flushes, cut);
  rig.rail.restore();
  rig.reattach();
  ASSERT_TRUE(rig.cache->recover(0).is_ok());
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
  EXPECT_EQ(rig.cache->extra().torn_segments_discarded, 0u);
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

// The superblock records the stripe organisation the array was formatted
// under: recovering a RAID-5 array as RAID-0 (or as PC) would place slots
// with the wrong stripe and serve other blocks' data, so it is rejected.
TEST(SrcRecovery, StripeOrganisationMismatchRejected) {
  Rig rig;  // RAID-5, NPC
  std::vector<u64> tags(54);
  sim::SimTime t = 0;
  for (u64 i = 0; i < tags.size(); ++i) {
    tags[i] = 0x5B00 + i;
    t = rig.write(t, i, 1, &tags[i]);
  }
  t = rig.cache->flush(t);
  SrcConfig raid0 = rig.cfg;
  raid0.raid = raid::RaidLevel::kRaid0;
  SrcConfig pc = rig.cfg;
  pc.clean_redundancy = CleanRedundancy::kPC;
  for (const SrcConfig& other : {raid0, pc}) {
    SrcCache wrong(other, rig.ssd_ptrs(), rig.primary.get());
    EXPECT_EQ(wrong.recover(t).code(), ErrorCode::kInvalidArgument)
        << other.describe();
  }
  rig.reattach();
  ASSERT_TRUE(rig.cache->recover(t).is_ok());
  for (u64 i = 0; i < tags.size(); ++i) {
    u64 out = 0;
    rig.read(t, i, 1, &out);
    ASSERT_EQ(out, tags[i]) << i;
  }
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
