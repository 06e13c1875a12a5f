#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <utility>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "raid/rebuild.hpp"
#include "recording_disk.hpp"
#include "src_test_util.hpp"

namespace srcache::src {
namespace {

using testutil::Rig;
using testutil::small_config;

// Seals `segments` full dirty segments with known tags over LBAs 0.. and
// returns the tags.
std::vector<u64> seal_dirty(Rig& rig, u64 segments = 1) {
  const u64 n = segments * rig.cfg.segment_data_slots(true);
  std::vector<u64> tags(n);
  for (u64 i = 0; i < n; ++i) {
    tags[i] = 0xF000 + i;
    rig.write(0, i, 1, &tags[i]);
  }
  return tags;
}

// Finds the SSD that stores the given lba by corrupting devices one at a
// time would be invasive; instead we scan for which device read changes the
// result — simpler: corrupt every device block in turn. For these tests we
// instead corrupt through the cache's own geometry knowledge by brute
// force: corrupt a block on each SSD in the data area and let checksum
// verification find it.

TEST(SrcFailure, SilentCorruptionRepairedByParity) {
  SrcConfig cfg = small_config();
  cfg.raid = raid::RaidLevel::kRaid5;
  Rig rig(cfg);
  const auto tags = seal_dirty(rig);
  // Corrupt the first data row block on every SSD except one — parity can
  // repair exactly one per stripe row, so corrupt just SSD 0's first slot
  // (SG 1, segment 0: SG 0 is the superblock).
  rig.ssds[0]->corrupt(rig.cfg.layout().data_block(1, 0));
  // Every block must still read back correctly.
  const u64 cap = rig.cfg.segment_data_slots(true);
  for (u64 i = 0; i < cap; ++i) {
    u64 out = 0;
    rig.read(1000, i, 1, &out);
    ASSERT_EQ(out, tags[i]) << i;
  }
  EXPECT_GE(rig.cache->extra().checksum_errors, 1u);
  EXPECT_GE(rig.cache->extra().parity_repairs, 1u);
  EXPECT_EQ(rig.cache->extra().unrecoverable_blocks, 0u);
}

TEST(SrcFailure, RepairWritesBackCorrectData) {
  SrcConfig cfg = small_config();
  Rig rig(cfg);
  const auto tags = seal_dirty(rig);
  rig.ssds[0]->corrupt(rig.cfg.layout().data_block(1, 0));
  u64 out = 0;
  for (u64 i = 0; i < tags.size(); ++i) rig.read(1000, i, 1, &out);
  const auto repairs = rig.cache->extra().parity_repairs;
  ASSERT_GE(repairs, 1u);
  // Second pass: the repaired block verifies cleanly, no new repairs.
  for (u64 i = 0; i < tags.size(); ++i) rig.read(2000, i, 1, &out);
  EXPECT_EQ(rig.cache->extra().parity_repairs, repairs);
}

TEST(SrcFailure, CleanCorruptionRefetchedWithoutParity) {
  SrcConfig cfg = small_config();
  cfg.clean_redundancy = CleanRedundancy::kNPC;  // clean has no parity
  Rig rig(cfg);
  const u64 clean_cap = rig.cfg.segment_data_slots(false);
  const std::vector<u64> ptag = {4321};
  rig.primary->write(0, 100000, 1, ptag);
  sim::SimTime t = 0;
  for (u64 i = 0; i < clean_cap; ++i) t = rig.read(t, 100000 + i);
  ASSERT_EQ(rig.cache->residence(100000), SrcCache::Residence::kCachedClean);
  // Corrupt the whole first clean chunk's data area on SSD 0.
  const SegmentLayout layout = rig.cfg.layout();
  for (u64 r = 0; r < layout.rows(); ++r)
    rig.ssds[0]->corrupt(layout.data_block(1, 0) + r);
  u64 out = 0;
  rig.read(sim::kSec, 100000, 1, &out);
  EXPECT_EQ(out, 4321u);
  EXPECT_GE(rig.cache->extra().refetch_repairs, 1u);
}

TEST(SrcFailure, DirtyRaid0CorruptionIsUnrecoverable) {
  SrcConfig cfg = small_config();
  cfg.raid = raid::RaidLevel::kRaid0;
  Rig rig(cfg);
  seal_dirty(rig);
  rig.ssds[0]->corrupt(rig.cfg.layout().data_block(1, 0));
  u64 out = 0;
  for (u64 i = 0; i < rig.cfg.segment_data_slots(true); ++i)
    rig.read(1000, i, 1, &out);
  EXPECT_GE(rig.cache->extra().unrecoverable_blocks, 1u);
}

TEST(SrcFailure, SsdFailStopParityReconstruction) {
  SrcConfig cfg = small_config();
  cfg.raid = raid::RaidLevel::kRaid5;
  Rig rig(cfg);
  const auto tags = seal_dirty(rig);
  rig.ssds[2]->fail();
  rig.cache->on_ssd_failure(2, 0);
  // All dirty data still readable (reconstructed on the fly, §4.3).
  for (u64 i = 0; i < tags.size(); ++i) {
    u64 out = 0;
    rig.read(1000, i, 1, &out);
    ASSERT_EQ(out, tags[i]) << i;
  }
  EXPECT_EQ(rig.cache->extra().lost_dirty_blocks, 0u);
}

TEST(SrcFailure, NpcCleanLostOnSsdFailure) {
  SrcConfig cfg = small_config();
  cfg.clean_redundancy = CleanRedundancy::kNPC;
  Rig rig(cfg);
  const u64 clean_cap = rig.cfg.segment_data_slots(false);
  sim::SimTime t = 0;
  for (u64 i = 0; i < clean_cap; ++i) t = rig.read(t, 100000 + i);
  rig.ssds[1]->fail();
  rig.cache->on_ssd_failure(1, t);
  // A quarter of the clean blocks lived on the failed SSD and are dropped.
  EXPECT_GT(rig.cache->extra().lost_clean_blocks, 0u);
  EXPECT_EQ(rig.cache->extra().lost_dirty_blocks, 0u);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
  // Dropped blocks simply miss and refetch (degraded performance, not
  // an error).
  u64 out = 0;
  EXPECT_GT(rig.read(sim::kSec, 100000, 1, &out), 0);
}

TEST(SrcFailure, PcCleanSurvivesSsdFailure) {
  SrcConfig cfg = small_config();
  cfg.clean_redundancy = CleanRedundancy::kPC;
  Rig rig(cfg);
  const u64 clean_cap = rig.cfg.segment_data_slots(false);
  const std::vector<u64> ptag = {55};
  rig.primary->write(0, 100000, 1, ptag);
  sim::SimTime t = 0;
  for (u64 i = 0; i < clean_cap; ++i) t = rig.read(t, 100000 + i);
  rig.ssds[1]->fail();
  rig.cache->on_ssd_failure(1, t);
  EXPECT_EQ(rig.cache->extra().lost_clean_blocks, 0u);
  // Clean hits keep working without touching the primary store.
  const auto disk_reads = rig.primary->stats().read_blocks;
  u64 out = 0;
  rig.read(sim::kSec, 100000, 1, &out);
  EXPECT_EQ(out, 55u);
  EXPECT_EQ(rig.primary->stats().read_blocks, disk_reads);
}

TEST(SrcFailure, Raid0FailureLosesDirtyData) {
  SrcConfig cfg = small_config();
  cfg.raid = raid::RaidLevel::kRaid0;
  Rig rig(cfg);
  seal_dirty(rig);
  rig.ssds[0]->fail();
  rig.cache->on_ssd_failure(0, 0);
  EXPECT_GT(rig.cache->extra().lost_dirty_blocks, 0u);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
}

TEST(SrcFailure, Raid1MirrorServesAfterFailure) {
  SrcConfig cfg = small_config();
  cfg.raid = raid::RaidLevel::kRaid1;
  Rig rig(cfg);
  const u64 cap = rig.cfg.segment_data_slots(true);
  std::vector<u64> tags(cap);
  for (u64 i = 0; i < cap; ++i) {
    tags[i] = 0xAB00 + i;
    rig.write(0, i, 1, &tags[i]);
  }
  rig.ssds[0]->fail();
  rig.cache->on_ssd_failure(0, 0);
  for (u64 i = 0; i < cap; ++i) {
    u64 out = 0;
    rig.read(1000, i, 1, &out);
    ASSERT_EQ(out, tags[i]) << i;
  }
  EXPECT_EQ(rig.cache->extra().lost_dirty_blocks, 0u);
}

TEST(SrcFailure, GcContinuesDegraded) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kS2D;
  Rig rig(cfg);
  seal_dirty(rig);
  rig.ssds[3]->fail();
  rig.cache->on_ssd_failure(3, 0);
  // Keep writing until reclaims happen; destages must reconstruct data
  // from the surviving SSDs.
  const u64 per_sg = cfg.segments_per_sg() * cfg.segment_data_slots(true);
  sim::SimTime t = 0;
  for (u64 i = 0; i < per_sg * (cfg.sg_count() + 1); ++i)
    t = rig.write(t, 1000 + i);
  EXPECT_GT(rig.cache->extra().sg_reclaims, 0u);
  EXPECT_EQ(rig.cache->extra().lost_dirty_blocks, 0u);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok())
      << rig.cache->verify_consistency().to_string();
}

// A second fail-stop on RAID-4/5, with no rebuild, leaves the stripes of
// the two dead SSDs without redundancy: the dirty blocks they held are lost
// at that moment, counted once, and no longer mapped; every other block
// still reads back its tag. Segment g (generation g + 1) of SG 1 keeps its
// parity on SSD 3 under RAID-4 and on SSD (g + 1) % 4 under RAID-5, so
// SSDs 1 and 2 hold 2 of 3 data columns in all four segments (4 x 12
// blocks) on RAID-4, and in two of them (2 x 12 + 2 x 6) on RAID-5.
TEST(SrcFailure, SecondFailStopDropsBlocksBeyondParity) {
  for (const auto& [level, held] :
       {std::pair{raid::RaidLevel::kRaid4, u64{48}},
        std::pair{raid::RaidLevel::kRaid5, u64{36}}}) {
    const std::string ctx = raid::to_string(level);
    Rig rig(small_config(level));
    const std::vector<u64> tags = seal_dirty(rig, 4);
    rig.ssds[1]->fail();
    rig.cache->on_ssd_failure(1, sim::kSec);
    EXPECT_EQ(rig.cache->extra().lost_dirty_blocks, 0u) << ctx;
    rig.ssds[2]->fail();
    rig.cache->on_ssd_failure(2, 2 * sim::kSec);
    EXPECT_EQ(rig.cache->extra().lost_dirty_blocks, held) << ctx;
    EXPECT_TRUE(rig.cache->verify_consistency().is_ok()) << ctx;

    std::vector<char> cached(tags.size());
    for (u64 lba = 0; lba < tags.size(); ++lba) {
      cached[lba] =
          rig.cache->residence(lba) == SrcCache::Residence::kCachedDirty;
    }
    EXPECT_EQ(std::count(cached.begin(), cached.end(), 1),
              static_cast<long>(tags.size() - held))
        << ctx;
    sim::SimTime t = 3 * sim::kSec;
    for (int pass = 0; pass < 3; ++pass) {
      for (u64 lba = 0; lba < tags.size(); ++lba) {
        u64 out = 0;
        t = rig.read(t, lba, 1, &out);
        if (cached[lba] != 0) {
          ASSERT_EQ(out, tags[lba]) << ctx << " pass " << pass << " " << lba;
        }
      }
      EXPECT_EQ(rig.cache->extra().unrecoverable_blocks, 0u) << ctx;
    }
    EXPECT_EQ(rig.cache->extra().lost_dirty_blocks, held) << ctx;
  }
}

// RAID-1 reads of a block whose primary copy is dead go through the same
// repair chain as GC and scrub: a hit served by the mirror counts one
// parity_repair, exactly as a scrub of the same block does.
TEST(SrcFailure, Raid1DegradedHitCountsLikeScrub) {
  Rig rig(small_config(raid::RaidLevel::kRaid1));
  const std::vector<u64> tags = seal_dirty(rig);
  rig.ssds[0]->fail();
  rig.cache->on_ssd_failure(0, sim::kSec);
  // Column 0 (slots 0..rows-1) lives on SSD 0, its mirror on SSD 2.
  const u64 rows = rig.cfg.layout().rows();
  sim::SimTime t = 2 * sim::kSec;
  u64 hit_repairs = 0;
  for (u64 lba = 0; lba < tags.size(); ++lba) {
    const u64 before = rig.cache->extra().parity_repairs;
    u64 out = 0;
    t = rig.read(t, lba, 1, &out);
    ASSERT_EQ(out, tags[lba]) << lba;
    const u64 delta = rig.cache->extra().parity_repairs - before;
    EXPECT_EQ(delta, lba < rows ? 1u : 0u) << lba;
    hit_repairs += delta;
  }
  const u64 before = rig.cache->extra().parity_repairs;
  const SrcCache::ScrubReport rep = rig.cache->scrub(t);
  EXPECT_EQ(rep.scanned, tags.size());
  EXPECT_EQ(rep.repaired, rows);
  EXPECT_EQ(rig.cache->extra().parity_repairs - before, hit_repairs);
  EXPECT_EQ(rep.unrecoverable, 0u);
}

// A fail-stop and the rebuild loss a second failure causes are stamped on
// the timeline at the virtual time they happen, not at the start of the run.
TEST(SrcFailure, FailureEventsCarryTheirTime) {
  Rig rig;
  obs::SpanTracer tracer{/*seed=*/1, /*rate=*/0.0, /*cap=*/0,
                         /*timeline_cap=*/1 << 10};
  rig.cache->set_span(&tracer);
  seal_dirty(rig);
  fault::FaultInjector inj(fault::FaultPlan::parse_or_die(
      "at=2s fail dev=ssd1; at=3s replace dev=ssd1; at=5s fail dev=ssd2", 7));
  inj.attach_ssds(rig.ssd_ptrs());
  raid::RebuildConfig rc;
  rc.mbps = 1e-3;  // nothing is copied before the second failure
  raid::RebuildManager mgr(rc, rig.ssd_ptrs());
  wire_faults(*rig.cache, inj, &mgr);
  for (const sim::SimTime t : {2 * sim::kSec, 3 * sim::kSec, 5 * sim::kSec})
    inj.advance(t, 0);

  std::vector<std::pair<std::string, sim::SimTime>> events;
  for (const obs::TimelineEvent& ev : tracer.timeline()) {
    const std::string name = ev.name;
    if (name == "src.ssd_failure" || name == "src.rebuild_lost") {
      EXPECT_EQ(ev.end, ev.start) << name;
      events.emplace_back(name, ev.start);
    }
  }
  const std::vector<std::pair<std::string, sim::SimTime>> want = {
      {"src.ssd_failure", 2 * sim::kSec},
      {"src.ssd_failure", 5 * sim::kSec},
      {"src.rebuild_lost", 5 * sim::kSec}};
  EXPECT_EQ(events, want);
}

// A rebuild that a survivor's latent sector error aborts leaves its lost
// ranges masked on the replacement, but a parity stripe with every other
// SSD live still serves them: nothing is dropped at the abort. Afterwards
// every block reads back its written tag or is counted unrecoverable (the
// rows the latent error breaks), and none reads back a wrong tag.
TEST(SrcFailure, SurvivorReadErrorKeepsReconstructableBlocks) {
  Rig rig;  // RAID-5
  const std::vector<u64> tags = seal_dirty(rig, 4);
  fault::FaultInjector inj(fault::FaultPlan::parse_or_die(
      "at=1s fail dev=ssd1; at=2s replace dev=ssd1", 7));
  inj.attach_ssds(rig.ssd_ptrs());
  raid::RebuildConfig rc;
  rc.mbps = 1e6;
  raid::RebuildManager mgr(rc, rig.ssd_ptrs());
  wire_faults(*rig.cache, inj, &mgr);
  // Segment 2 of SG 1 (generation 3) keeps parity on SSD 3 and data
  // column 1 on SSD 1; its row 0 on SSD 2 turns unreadable.
  const SegmentLayout layout = rig.cfg.layout();
  rig.ssds[2]->inject_media_errors(layout.data_block(1, 2), 1);
  inj.advance(1 * sim::kSec, 0);
  inj.advance(2 * sim::kSec, 1);
  mgr.pump(3 * sim::kSec);
  ASSERT_FALSE(mgr.rebuilding());
  ASSERT_EQ(mgr.outcome().rebuilds_aborted, 1u);
  ASSERT_GT(mgr.outcome().blocks_unrecovered, 0u);
  EXPECT_TRUE(mgr.covers(1, layout.data_block(1, 2) + 1));
  EXPECT_EQ(rig.cache->extra().lost_dirty_blocks, 0u);
  EXPECT_TRUE(rig.cache->verify_consistency().is_ok());

  sim::SimTime t = 4 * sim::kSec;
  u64 wrong = 0, unreadable = 0;
  for (u64 lba = 0; lba < tags.size(); ++lba) {
    ASSERT_EQ(rig.cache->residence(lba), SrcCache::Residence::kCachedDirty);
    const u64 before = rig.cache->extra().unrecoverable_blocks;
    u64 out = 0;
    t = rig.read(t, lba, 1, &out);
    if (rig.cache->extra().unrecoverable_blocks != before) {
      ++unreadable;
    } else if (out != tags[lba]) {
      ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u);
  // Row 0 of segment 2 on SSDs 1 and 2: the masked copy needs the
  // unreadable one, and the unreadable one needs the masked one.
  EXPECT_EQ(unreadable, 2u);
}

TEST(SrcScrub, CleanCacheScansWithoutRepairs) {
  Rig rig;
  seal_dirty(rig);
  SimTime done = 0;
  const auto rep = rig.cache->scrub(0, &done);
  EXPECT_EQ(rep.scanned, rig.cfg.segment_data_slots(true));
  EXPECT_EQ(rep.repaired, 0u);
  EXPECT_EQ(rep.unrecoverable, 0u);
  EXPECT_GT(done, 0);
}

TEST(SrcScrub, FindsAndRepairsCorruption) {
  Rig rig;
  seal_dirty(rig);
  const u64 row0 = rig.cfg.layout().data_block(1, 0);
  // Segment 0's parity column is SSD 1 (generation 1 % 4), so corrupt
  // data blocks on SSDs 0 and 2.
  rig.ssds[0]->corrupt(row0);
  rig.ssds[2]->corrupt(row0 + 1);
  const auto rep = rig.cache->scrub(0);
  EXPECT_EQ(rep.repaired, 2u);
  EXPECT_EQ(rep.unrecoverable, 0u);
  // A second scrub finds everything healthy again (repairs wrote back).
  const auto rep2 = rig.cache->scrub(sim::kSec);
  EXPECT_EQ(rep2.repaired, 0u);
}

TEST(SrcScrub, ReportsUnrecoverableOnRaid0) {
  SrcConfig cfg = small_config();
  cfg.raid = raid::RaidLevel::kRaid0;
  Rig rig(cfg);
  seal_dirty(rig);
  rig.ssds[0]->corrupt(rig.cfg.layout().data_block(1, 0));
  const auto rep = rig.cache->scrub(0);
  EXPECT_GE(rep.unrecoverable, 1u);
}

TEST(SrcScrub, RefetchesCorruptNpcClean) {
  SrcConfig cfg = small_config();
  cfg.clean_redundancy = CleanRedundancy::kNPC;
  Rig rig(cfg);
  const u64 clean_cap = rig.cfg.segment_data_slots(false);
  sim::SimTime t = 0;
  for (u64 i = 0; i < clean_cap; ++i) t = rig.read(t, 100000 + i);
  rig.ssds[0]->corrupt(rig.cfg.layout().data_block(1, 0));
  const auto rep = rig.cache->scrub(t);
  EXPECT_GE(rep.refetched, 1u);
  EXPECT_EQ(rep.unrecoverable, 0u);
}

// --- golden device I/O ------------------------------------------------------

enum class GoldenCase { kHealthy, kFaulty, kFailed, kRebuilt };

struct GoldenSrc {
  u32 device_crc = 0;  // every SSD and primary call, in arrival order
  u32 state_crc = 0;   // returned tags, stats, ledgers, timeline events
  SrcCache::ExtraStats extra;
  SrcCache::TenantStats tenant_sum;  // every tenant's counters added up
};

// The golden scripts' devices: the small rig's geometry over RecordingDisks
// (ids 0..n-1 the SSDs, n the primary) folding every call into one CRC, and
// a timeline-only span tracer whose event count each call also folds.
struct GoldenRig {
  std::vector<std::unique_ptr<blockdev::RecordingDisk>> ssds;
  std::vector<blockdev::BlockDevice*> devs;
  std::unique_ptr<blockdev::RecordingDisk> primary;
  obs::SpanTracer tracer{/*seed=*/1, /*rate=*/0.0, /*cap=*/0,
                         /*timeline_cap=*/1 << 20};

  GoldenRig(const SrcConfig& cfg, u32* device_crc) {
    blockdev::MemDiskConfig fast;
    fast.capacity_blocks = cfg.region_bytes_per_ssd / kBlockSize + 64;
    fast.op_latency = 20 * sim::kUs;
    fast.bandwidth_mbps = 500.0;
    fast.flush_latency = 4 * sim::kMs;
    blockdev::MemDiskConfig slow;
    slow.capacity_blocks = 1 * GiB / kBlockSize;
    slow.op_latency = 5 * sim::kMs;
    slow.bandwidth_mbps = 110.0;
    for (u64 i = 0; i < cfg.num_ssds; ++i) {
      ssds.push_back(
          std::make_unique<blockdev::RecordingDisk>(i, fast, device_crc));
      devs.push_back(ssds.back().get());
    }
    primary = std::make_unique<blockdev::RecordingDisk>(cfg.num_ssds, slow,
                                                        device_crc);
    for (auto& d : ssds) d->watch(&tracer);
    primary->watch(&tracer);
  }
  // The devices hold the tracer's address.
  GoldenRig(const GoldenRig&) = delete;
  GoldenRig& operator=(const GoldenRig&) = delete;
};

// Folds the cache's CacheStats, ExtraStats and provenance ledger.
void fold_cache(const SrcCache& cache, GoldenSrc& g) {
  auto fold = [&g](u64 v) { g.state_crc = common::crc32c_of(v, g.state_crc); };
  for (const auto& f : cache::kCacheStatsFields) {
    if (f.counter != nullptr) fold(cache.stats().*f.counter);
  }
  g.extra = cache.extra();
  std::array<u64, sizeof(SrcCache::ExtraStats) / sizeof(u64)> extra{};
  static_assert(sizeof(extra) == sizeof(SrcCache::ExtraStats));
  std::memcpy(extra.data(), &g.extra, sizeof(extra));
  for (u64 v : extra) fold(v);
  for (const auto& [key, cell] : cache.provenance().cells()) {
    fold(key.first);
    fold(key.second);
    for (u64 bytes : cell) fold(bytes);
  }
}

// Folds the tracer's timeline events and every device's DeviceStats.
void fold_devices(const GoldenRig& rig, GoldenSrc& g) {
  auto fold = [&g](u64 v) { g.state_crc = common::crc32c_of(v, g.state_crc); };
  for (const obs::TimelineEvent& ev : rig.tracer.timeline()) {
    g.state_crc = common::crc32c(
        {reinterpret_cast<const u8*>(ev.name), std::strlen(ev.name)},
        g.state_crc);
    for (u64 v : {static_cast<u64>(ev.lane), static_cast<u64>(ev.start),
                  static_cast<u64>(ev.end), ev.arg})
      fold(v);
  }
  for (const auto& d : rig.ssds)
    g.state_crc = blockdev::fold_stats(d->stats(), g.state_crc);
  g.state_crc = blockdev::fold_stats(rig.primary->stats(), g.state_crc);
}

// A seeded script of reads, writes and flushes over 3x the cache on the
// small rig's geometry, with every SSD and the primary recorded, then a
// full scrub. The fault cases go through a FaultInjector wired as in a
// run: latent errors on ssd2 plus silent corruption on ssd2 and ssd0;
// ssd1 fail-stopped; or ssd1 fail-stopped, then replaced and rebuilt by a
// RebuildManager pumped once per op while GC keeps running. A timeline-only
// span tracer records the cache's flat events; the devices fold how many
// had been recorded at each call.
GoldenSrc run_device_io_script(raid::RaidLevel level, GoldenCase c) {
  GoldenSrc g;
  const SrcConfig cfg = small_config(level);
  GoldenRig rig(cfg, &g.device_crc);
  SrcCache cache(cfg, rig.devs, rig.primary.get());
  cache.set_span(&rig.tracer);
  cache.format(0);

  const u64 sg = cfg.eg_blocks();
  const auto range = [](u64 a, u64 b) {
    return std::to_string(a) + ".." + std::to_string(b);
  };
  std::string plan;
  switch (c) {
    case GoldenCase::kHealthy: break;
    case GoldenCase::kFaulty:
      plan = "at=ops:300 latent dev=ssd2 lba=" + range(3 * sg, 6 * sg) +
             "; at=ops:700 corrupt dev=ssd2 lba=" + range(sg, 16 * sg) +
             " count=48; at=ops:1500 corrupt dev=ssd0 lba=" +
             range(sg, 16 * sg) + " count=48";
      break;
    case GoldenCase::kFailed: plan = "at=ops:600 fail dev=ssd1"; break;
    case GoldenCase::kRebuilt:
      plan = "at=ops:600 fail dev=ssd1; at=ops:1200 replace dev=ssd1";
      break;
  }
  fault::FaultInjector inj(fault::FaultPlan::parse_or_die(plan, 7));
  inj.attach_ssds(rig.devs);
  inj.attach_primary(rig.primary.get());
  std::unique_ptr<raid::RebuildManager> mgr;
  if (c == GoldenCase::kRebuilt) {
    raid::RebuildConfig rc;
    rc.mbps = 2.0;  // slow enough that the rebuild spans many reclaims
    mgr = std::make_unique<raid::RebuildManager>(rc, rig.devs);
  }
  wire_faults(cache, inj, mgr.get());

  auto fold = [&g](u64 v) { g.state_crc = common::crc32c_of(v, g.state_crc); };
  const u64 span = 3 * cfg.capacity_blocks();
  common::Xoshiro256 rng(17 * static_cast<u64>(level) + static_cast<u64>(c));
  sim::SimTime now = 0;
  for (u64 op = 0; op < 3000; ++op) {
    now += static_cast<sim::SimTime>(rng.below(400)) * sim::kUs;
    inj.advance(now, op);
    if (mgr) mgr->pump(now);
    const u64 dice = rng.below(100);
    if (dice < 2) {
      fold(static_cast<u64>(cache.flush(now)));
      continue;
    }
    cache::AppRequest r;
    r.now = now;
    r.nblocks = 1 + static_cast<u32>(rng.below(8));
    r.lba = rng.below(span - r.nblocks + 1);
    std::vector<u64> tags(r.nblocks, 0);
    if (dice < 50) {
      for (u64& t : tags) t = rng.next();
      r.is_write = true;
      r.tags = tags.data();
      fold(static_cast<u64>(cache.submit(r)));
    } else {
      r.tags_out = tags.data();
      fold(static_cast<u64>(cache.submit(r)));
      for (u64 t : tags) fold(t);
    }
  }
  sim::SimTime t = now;
  const SrcCache::ScrubReport rep = cache.scrub(now, &t);
  for (u64 v : {static_cast<u64>(t), rep.scanned, rep.repaired, rep.refetched,
                rep.unrecoverable})
    fold(v);

  fold_cache(cache, g);
  for (u64 v : {inj.ledger().injected(), inj.ledger().detected(),
                inj.ledger().repaired(), inj.ledger().repaired_by_rebuild()})
    fold(v);
  if (mgr) {
    const raid::RebuildOutcome o = mgr->outcome();
    for (u64 v : {o.rebuilds_completed, o.blocks_copied, o.write_bytes})
      fold(v);
  }
  fold_devices(rig, g);
  return g;
}

// Pins which commands SrcCache sends its SSDs and primary storage — hit
// reads, GC reads, repairs, write-backs, refetches, seals, destages, trims,
// flushes and scrub — in what order and when, and what it reports, for
// every RAID level healthy, under latent errors and silent corruption,
// degraded, and across an online rebuild. Any drift in the read, repair or
// reclaim paths moves a CRC.
TEST(Src, GoldenDeviceIo) {
  struct Pin {
    raid::RaidLevel level;
    GoldenCase c;
    u32 device_crc;
    u32 state_crc;
  };
  const Pin pins[] = {
      {raid::RaidLevel::kRaid0, GoldenCase::kHealthy, 0x18a697ec, 0x9704e851},
      {raid::RaidLevel::kRaid0, GoldenCase::kFaulty, 0x172f1b13, 0x6608878a},
      {raid::RaidLevel::kRaid0, GoldenCase::kFailed, 0x18b71950, 0xab332c76},
      {raid::RaidLevel::kRaid0, GoldenCase::kRebuilt, 0xa28f80a6, 0x7caa2f34},
      {raid::RaidLevel::kRaid1, GoldenCase::kHealthy, 0x7321f56f, 0x3f20de0b},
      {raid::RaidLevel::kRaid1, GoldenCase::kFaulty, 0x00d4808e, 0x2d160e2c},
      {raid::RaidLevel::kRaid1, GoldenCase::kFailed, 0xc899484c, 0xe29991af},
      {raid::RaidLevel::kRaid1, GoldenCase::kRebuilt, 0xa569af1b, 0x123a076d},
      {raid::RaidLevel::kRaid4, GoldenCase::kHealthy, 0xf0c49a47, 0xdac36fe6},
      {raid::RaidLevel::kRaid4, GoldenCase::kFaulty, 0xa775ee77, 0xcb6f327f},
      {raid::RaidLevel::kRaid4, GoldenCase::kFailed, 0x03977f01, 0xbdcdb583},
      {raid::RaidLevel::kRaid4, GoldenCase::kRebuilt, 0xe6d5a3b8, 0xb6e09a84},
      {raid::RaidLevel::kRaid5, GoldenCase::kHealthy, 0xdce551e5, 0x83c2ca15},
      {raid::RaidLevel::kRaid5, GoldenCase::kFaulty, 0xcc0e4a1d, 0x555fd5ca},
      {raid::RaidLevel::kRaid5, GoldenCase::kFailed, 0x43eff24b, 0x91eac601},
      {raid::RaidLevel::kRaid5, GoldenCase::kRebuilt, 0xb6944aac, 0x74f88ce2},
  };
  const char* names[] = {"healthy", "faulty", "failed", "rebuilt"};
  for (const Pin& p : pins) {
    const GoldenSrc g = run_device_io_script(p.level, p.c);
    std::string ctx = raid::to_string(p.level);
    ctx += " ";
    ctx += names[static_cast<int>(p.c)];
    EXPECT_EQ(g.device_crc, p.device_crc) << ctx;
    EXPECT_EQ(g.state_crc, p.state_crc) << ctx;
    // The script reaches both reclaim modes.
    EXPECT_GT(g.extra.s2s_reclaims, 0u) << ctx;
    EXPECT_GT(g.extra.s2d_reclaims, 0u) << ctx;
  }
}

// --- golden write path ------------------------------------------------------

struct WritePathCase {
  policy::EvictionKind eviction;
  policy::AdmissionKind admission;
  bool pc_per_segment;  // PC with per-segment flush, else NPC with per-SG
};

// A seeded two-tenant script over 3x the cache on the healthy RAID-5 small
// rig: writes, reads, flushes, tier destages and demotes, with a 2 ms TWAIT
// and occasional longer gaps so partial segments seal. At op 1000 a quota
// puts tenant 1 over its share, so its new writes and misses bypass the
// cache and GC sheds its blocks. Folds every SSD and primary call and the
// returned times and tags, then the stats, ledgers, every registered
// metric (tenant and policy counters included) and the timeline, and
// audits verify_consistency() after every op.
GoldenSrc run_write_path_script(const WritePathCase& wc) {
  GoldenSrc g;
  SrcConfig cfg = small_config();
  cfg.eviction = wc.eviction;
  cfg.admission = wc.admission;
  if (wc.pc_per_segment) {
    cfg.clean_redundancy = CleanRedundancy::kPC;
    cfg.flush_control = FlushControl::kPerSegment;
  }
  cfg.twait = 2 * sim::kMs;
  cfg.umax = 0.75;  // low enough that every policy pair also reclaims S2D
  GoldenRig rig(cfg, &g.device_crc);
  SrcCache cache(cfg, rig.devs, rig.primary.get());
  cache.set_span(&rig.tracer);
  obs::MetricsRegistry reg;
  cache.register_metrics(obs::Scope(reg, "src"));
  cache.format(0);

  auto fold = [&g](u64 v) { g.state_crc = common::crc32c_of(v, g.state_crc); };
  const u64 cap = cfg.capacity_blocks();
  const u64 span = 3 * cap;
  common::Xoshiro256 rng(31 + static_cast<u64>(wc.eviction) * 7 +
                         static_cast<u64>(wc.admission) * 3 +
                         (wc.pc_per_segment ? 1 : 0));
  sim::SimTime now = 0;
  std::vector<u64> lbas, tags;
  std::vector<u16> owners;
  for (u64 op = 0; op < 6000; ++op) {
    now += static_cast<sim::SimTime>(rng.below(400)) * sim::kUs;
    if (rng.below(40) == 0) now += 5 * sim::kMs;  // past TWAIT
    if (op == 1000) cache.set_tenant_quotas({cap, cap / 16});
    const u16 tenant = rng.below(3) == 0 ? 1 : 0;
    const u32 n = 1 + static_cast<u32>(rng.below(8));
    const u64 lba = rng.below(span - n + 1);
    const u64 dice = rng.below(100);
    if (dice < 2) {
      fold(static_cast<u64>(cache.flush(now)));
    } else if (dice < 7) {
      lbas.clear();
      tags.clear();
      for (u32 k = 0; k < n; ++k) {
        lbas.push_back(lba + k);
        tags.push_back(rng.next());
      }
      owners.assign(n, tenant);
      fold(static_cast<u64>(cache.tier_destage(now, lbas, tags, owners)));
    } else if (dice < 12) {
      fold(static_cast<u64>(cache.tier_demote(now, lba, rng.next(), tenant)));
    } else {
      cache::AppRequest r;
      r.now = now;
      r.tenant = tenant;
      r.lba = lba;
      r.nblocks = n;
      tags.assign(n, 0);
      r.is_write = dice < 55;
      if (r.is_write) {
        for (u64& t : tags) t = rng.next();
        r.tags = tags.data();
      } else {
        r.tags_out = tags.data();
      }
      fold(static_cast<u64>(cache.submit(r)));
      if (!r.is_write)
        for (u64 t : tags) fold(t);
    }
    // Audit the map, buffers, segment census and tenant occupancy at every
    // op boundary, not only at the end.
    const Status audit = cache.verify_consistency();
    EXPECT_TRUE(audit.is_ok()) << "op " << op << ": " << audit.to_string();
    if (!audit.is_ok()) break;
  }
  fold(cache.extra().segments_written);
  fold(cache.cached_blocks());

  fold_cache(cache, g);
  for (const SrcCache::TenantStats& t : cache.tenant_stats()) {
    for (u64 v : {t.read_hit_blocks, t.read_miss_blocks, t.write_blocks,
                  t.fetch_bypass_blocks, t.write_bypass_blocks,
                  t.gc_shed_blocks, t.destage_blocks, t.live_blocks,
                  t.quota_blocks})
      fold(v);
    g.tenant_sum.write_bypass_blocks += t.write_bypass_blocks;
    g.tenant_sum.fetch_bypass_blocks += t.fetch_bypass_blocks;
    g.tenant_sum.gc_shed_blocks += t.gc_shed_blocks;
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  for (const auto& [name, v] : snap.counters) {
    g.state_crc = common::crc32c(
        {reinterpret_cast<const u8*>(name.data()), name.size()}, g.state_crc);
    fold(v);
  }
  for (const auto& [name, v] : snap.gauges) {
    g.state_crc = common::crc32c(
        {reinterpret_cast<const u8*>(name.data()), name.size()}, g.state_crc);
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    fold(bits);
  }
  fold_devices(rig, g);
  return g;
}

// Pins the write side: which commands staging, sealing (full and partial,
// NPC and PC, per-SG and per-segment flush), S2S copies, S2D and shed
// destages, quota bypass and the tier hand-off send to the SSDs and primary
// storage, in what order and when, and the stats, provenance, tenant and
// policy counters they leave, under three eviction/admission pairs.
TEST(Src, GoldenWritePathIo) {
  using policy::AdmissionKind;
  using policy::EvictionKind;
  struct Pin {
    WritePathCase c;
    u32 device_crc;
    u32 state_crc;
  };
  const Pin pins[] = {
      {{EvictionKind::kPaper, AdmissionKind::kAlways, false},
       0x944e55c0,
       0x1721e054},
      {{EvictionKind::kPaper, AdmissionKind::kAlways, true},
       0x13dceddf,
       0x239ce4c0},
      {{EvictionKind::kS3Fifo, AdmissionKind::kGhost, false},
       0x8fd5f4f5,
       0x7e3f9248},
      {{EvictionKind::kS3Fifo, AdmissionKind::kGhost, true},
       0x1c9491ac,
       0xd06bbdd3},
      {{EvictionKind::kSieve, AdmissionKind::kAlways, false},
       0x4a2ed6ad,
       0x113f5c29},
      {{EvictionKind::kSieve, AdmissionKind::kAlways, true},
       0xdf2f4247,
       0x97fd5548},
  };
  for (const Pin& p : pins) {
    const GoldenSrc g = run_write_path_script(p.c);
    std::string ctx = policy::to_string(p.c.eviction);
    ctx += "+";
    ctx += policy::to_string(p.c.admission);
    ctx += p.c.pc_per_segment ? " PC per-segment" : " NPC per-SG";
    EXPECT_EQ(g.device_crc, p.device_crc)
        << ctx << std::hex << " device 0x" << g.device_crc;
    EXPECT_EQ(g.state_crc, p.state_crc)
        << ctx << std::hex << " state 0x" << g.state_crc;
    // The script reaches every write-path branch it pins.
    EXPECT_GT(g.tenant_sum.write_bypass_blocks, 0u) << ctx;
    EXPECT_GT(g.tenant_sum.fetch_bypass_blocks, 0u) << ctx;
    EXPECT_GT(g.tenant_sum.gc_shed_blocks, 0u) << ctx;
    EXPECT_GT(g.extra.partial_segments, 0u) << ctx;
    EXPECT_GT(g.extra.s2s_reclaims, 0u) << ctx;
    EXPECT_GT(g.extra.s2d_reclaims, 0u) << ctx;
  }
}

}  // namespace
}  // namespace srcache::src
