#include <gtest/gtest.h>

#include <array>
#include <cstring>

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

// Seals one dirty segment with known tags and returns them.
std::vector<u64> seal_one_dirty(Rig& rig, u64 lba_base = 0) {
  const u64 cap = rig.cfg.segment_data_slots(true);
  std::vector<u64> tags(cap);
  for (u64 i = 0; i < cap; ++i) {
    tags[i] = 0xF000 + i;
    rig.write(0, lba_base + i, 1, &tags[i]);
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
  const auto tags = seal_one_dirty(rig);
  // Corrupt the first data row block on every SSD except one — parity can
  // repair exactly one per stripe row, so corrupt just SSD 0's first slot.
  // Data rows start after the MS block of SG 1, segment 0.
  const u64 chunk_blocks = rig.cfg.chunk_blocks();
  const u64 sg1_base = rig.cfg.eg_blocks();  // SG 0 is the superblock
  rig.ssds[0]->corrupt(sg1_base + 1);        // first data block
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
  (void)chunk_blocks;
}

TEST(SrcFailure, RepairWritesBackCorrectData) {
  SrcConfig cfg = small_config();
  Rig rig(cfg);
  const auto tags = seal_one_dirty(rig);
  const u64 sg1_base = rig.cfg.eg_blocks();
  rig.ssds[0]->corrupt(sg1_base + 1);
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
  const u64 sg1_base = rig.cfg.eg_blocks();
  for (u64 b = 1; b + 1 < rig.cfg.chunk_blocks(); ++b)
    rig.ssds[0]->corrupt(sg1_base + b);
  u64 out = 0;
  rig.read(sim::kSec, 100000, 1, &out);
  EXPECT_EQ(out, 4321u);
  EXPECT_GE(rig.cache->extra().refetch_repairs, 1u);
}

TEST(SrcFailure, DirtyRaid0CorruptionIsUnrecoverable) {
  SrcConfig cfg = small_config();
  cfg.raid = raid::RaidLevel::kRaid0;
  Rig rig(cfg);
  seal_one_dirty(rig);
  const u64 sg1_base = rig.cfg.eg_blocks();
  rig.ssds[0]->corrupt(sg1_base + 1);
  u64 out = 0;
  for (u64 i = 0; i < rig.cfg.segment_data_slots(true); ++i)
    rig.read(1000, i, 1, &out);
  EXPECT_GE(rig.cache->extra().unrecoverable_blocks, 1u);
}

TEST(SrcFailure, SsdFailStopParityReconstruction) {
  SrcConfig cfg = small_config();
  cfg.raid = raid::RaidLevel::kRaid5;
  Rig rig(cfg);
  const auto tags = seal_one_dirty(rig);
  rig.ssds[2]->fail();
  rig.cache->on_ssd_failure(2);
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
  rig.cache->on_ssd_failure(1);
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
  rig.cache->on_ssd_failure(1);
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
  seal_one_dirty(rig);
  rig.ssds[0]->fail();
  rig.cache->on_ssd_failure(0);
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
  rig.cache->on_ssd_failure(0);
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
  seal_one_dirty(rig);
  rig.ssds[3]->fail();
  rig.cache->on_ssd_failure(3);
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

TEST(SrcScrub, CleanCacheScansWithoutRepairs) {
  Rig rig;
  seal_one_dirty(rig);
  SimTime done = 0;
  const auto rep = rig.cache->scrub(0, &done);
  EXPECT_EQ(rep.scanned, rig.cfg.segment_data_slots(true));
  EXPECT_EQ(rep.repaired, 0u);
  EXPECT_EQ(rep.unrecoverable, 0u);
  EXPECT_GT(done, 0);
}

TEST(SrcScrub, FindsAndRepairsCorruption) {
  Rig rig;
  seal_one_dirty(rig);
  const u64 sg1_base = rig.cfg.eg_blocks();
  // Segment 0's parity column is SSD 1 (generation 1 % 4), so corrupt
  // data blocks on SSDs 0 and 2.
  rig.ssds[0]->corrupt(sg1_base + 1);
  rig.ssds[2]->corrupt(sg1_base + 2);
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
  seal_one_dirty(rig);
  rig.ssds[0]->corrupt(rig.cfg.eg_blocks() + 1);
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
  rig.ssds[0]->corrupt(rig.cfg.eg_blocks() + 1);
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
      {raid::RaidLevel::kRaid0, GoldenCase::kHealthy, 0x839dd05b, 0x9704e851},
      {raid::RaidLevel::kRaid0, GoldenCase::kFaulty, 0x938141bd, 0x6608878a},
      {raid::RaidLevel::kRaid0, GoldenCase::kFailed, 0x9ea9775a, 0xa92b95d6},
      {raid::RaidLevel::kRaid0, GoldenCase::kRebuilt, 0x7c965c6e, 0xf8a2a654},
      {raid::RaidLevel::kRaid1, GoldenCase::kHealthy, 0x0399d0ff, 0x3f20de0b},
      {raid::RaidLevel::kRaid1, GoldenCase::kFaulty, 0xe1d69cd7, 0x2d160e2c},
      {raid::RaidLevel::kRaid1, GoldenCase::kFailed, 0xb3ad5213, 0xf8de8da4},
      {raid::RaidLevel::kRaid1, GoldenCase::kRebuilt, 0x00b73349, 0xb2ff4d30},
      {raid::RaidLevel::kRaid4, GoldenCase::kHealthy, 0x46ac1638, 0xdac36fe6},
      {raid::RaidLevel::kRaid4, GoldenCase::kFaulty, 0xdedb8e56, 0xcb6f327f},
      {raid::RaidLevel::kRaid4, GoldenCase::kFailed, 0xf34d21f2, 0x507f8882},
      {raid::RaidLevel::kRaid4, GoldenCase::kRebuilt, 0x0ab2d653, 0xf65db86b},
      {raid::RaidLevel::kRaid5, GoldenCase::kHealthy, 0x63a5dbb1, 0x83c2ca15},
      {raid::RaidLevel::kRaid5, GoldenCase::kFaulty, 0x5dc503b5, 0x555fd5ca},
      {raid::RaidLevel::kRaid5, GoldenCase::kFailed, 0x4d2623d6, 0x0336f730},
      {raid::RaidLevel::kRaid5, GoldenCase::kRebuilt, 0x935cbe8b, 0xff4587a4},
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
  fold(cache.seals());
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
       0x606b5e38,
       0x1721e054},
      {{EvictionKind::kPaper, AdmissionKind::kAlways, true},
       0x3e6ea0c1,
       0x239ce4c0},
      {{EvictionKind::kS3Fifo, AdmissionKind::kGhost, false},
       0x27647986,
       0x7e3f9248},
      {{EvictionKind::kS3Fifo, AdmissionKind::kGhost, true},
       0x80858a2e,
       0xd06bbdd3},
      {{EvictionKind::kSieve, AdmissionKind::kAlways, false},
       0x17ea8c98,
       0x113f5c29},
      {{EvictionKind::kSieve, AdmissionKind::kAlways, true},
       0x6e79a917,
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
