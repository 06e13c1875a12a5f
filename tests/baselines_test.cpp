#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <queue>
#include <string>

#include "baselines/bcache_like.hpp"
#include "baselines/flashcache_like.hpp"
#include "block/mem_disk.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "raid/raid_device.hpp"
#include "recording_disk.hpp"

namespace srcache::baselines {
namespace {

using blockdev::MemDisk;
using blockdev::MemDiskConfig;
using cache::AppRequest;

struct Rig {
  std::unique_ptr<MemDisk> ssd;
  std::unique_ptr<MemDisk> primary;

  Rig() {
    MemDiskConfig fast;
    fast.capacity_blocks = 64 * MiB / kBlockSize;
    fast.op_latency = 20 * sim::kUs;
    fast.bandwidth_mbps = 500.0;
    fast.flush_latency = 4 * sim::kMs;
    ssd = std::make_unique<MemDisk>(fast);
    MemDiskConfig slow;
    slow.capacity_blocks = 256 * MiB / kBlockSize;
    slow.op_latency = 5 * sim::kMs;  // disk-like
    slow.bandwidth_mbps = 110.0;
    primary = std::make_unique<MemDisk>(slow);
  }
};

FlashcacheConfig fc_cfg(u64 cache_blocks = 8192) {
  FlashcacheConfig cfg;
  cfg.cache_blocks = cache_blocks;
  cfg.set_blocks = 512;
  return cfg;
}

BcacheConfig bc_cfg(u64 cache_blocks = 8192) {
  BcacheConfig cfg;
  cfg.cache_blocks = cache_blocks;
  cfg.bucket_blocks = 512;
  return cfg;
}

AppRequest wreq(sim::SimTime now, u64 lba, u32 n = 1, const u64* tags = nullptr) {
  AppRequest r;
  r.now = now;
  r.is_write = true;
  r.lba = lba;
  r.nblocks = n;
  r.tags = tags;
  return r;
}

AppRequest rreq(sim::SimTime now, u64 lba, u32 n = 1, u64* out = nullptr) {
  AppRequest r;
  r.now = now;
  r.lba = lba;
  r.nblocks = n;
  r.tags_out = out;
  return r;
}

// --- Flashcache ------------------------------------------------------------------

TEST(Flashcache, RejectsEmpty) {
  Rig rig;
  FlashcacheConfig cfg;
  EXPECT_THROW(FlashcacheLike(cfg, rig.ssd.get(), rig.primary.get()),
               std::invalid_argument);
}

// A cache smaller than one set rounds down to no sets at all.
TEST(Flashcache, RejectsCacheSmallerThanOneSet) {
  Rig rig;
  EXPECT_THROW(FlashcacheLike(fc_cfg(511), rig.ssd.get(), rig.primary.get()),
               std::invalid_argument);
}

TEST(Flashcache, WriteThenReadHits) {
  Rig rig;
  FlashcacheLike fc(fc_cfg(), rig.ssd.get(), rig.primary.get());
  const u64 tag = 777;
  fc.submit(wreq(0, 100, 1, &tag));
  u64 out = 0;
  fc.submit(rreq(1000, 100, 1, &out));
  EXPECT_EQ(out, 777u);
  EXPECT_EQ(fc.stats().read_hit_blocks, 1u);
  EXPECT_EQ(fc.stats().read_miss_blocks, 0u);
}

TEST(Flashcache, MissFetchesFromPrimaryAndCaches) {
  Rig rig;
  FlashcacheLike fc(fc_cfg(), rig.ssd.get(), rig.primary.get());
  const std::vector<u64> ptags = {55};
  rig.primary->write(0, 200, 1, ptags);
  u64 out = 0;
  fc.submit(rreq(0, 200, 1, &out));
  EXPECT_EQ(out, 55u);
  EXPECT_EQ(fc.stats().read_miss_blocks, 1u);
  out = 0;
  fc.submit(rreq(1, 200, 1, &out));
  EXPECT_EQ(out, 55u);
  EXPECT_EQ(fc.stats().read_hit_blocks, 1u);
}

TEST(Flashcache, DirtyWritesAddMetadataTraffic) {
  Rig rig;
  FlashcacheLike fc(fc_cfg(), rig.ssd.get(), rig.primary.get());
  const auto before = rig.ssd->stats().write_blocks;
  fc.submit(wreq(0, 1, 1));
  // One data block + one metadata block (§3.1).
  EXPECT_EQ(rig.ssd->stats().write_blocks - before, 2u);
}

TEST(Flashcache, CleanFillsSkipMetadata) {
  Rig rig;
  FlashcacheLike fc(fc_cfg(), rig.ssd.get(), rig.primary.get());
  const auto before = rig.ssd->stats().write_blocks;
  fc.submit(rreq(0, 300));
  EXPECT_EQ(rig.ssd->stats().write_blocks - before, 1u);  // data only
}

TEST(Flashcache, IgnoresFlush) {
  Rig rig;
  FlashcacheLike fc(fc_cfg(), rig.ssd.get(), rig.primary.get());
  fc.submit(wreq(0, 1, 1));
  const auto flushes = rig.ssd->stats().flushes;
  EXPECT_EQ(fc.flush(100), 100);  // immediate ack
  EXPECT_EQ(rig.ssd->stats().flushes, flushes);
}

TEST(Flashcache, WriteThroughWritesPrimary) {
  Rig rig;
  FlashcacheConfig cfg = fc_cfg();
  cfg.write_back = false;
  FlashcacheLike fc(cfg, rig.ssd.get(), rig.primary.get());
  const u64 tag = 3;
  const auto done = fc.submit(wreq(0, 5, 1, &tag));
  EXPECT_EQ(rig.primary->stats().write_blocks, 1u);
  // Ack waits for the slow primary.
  EXPECT_GE(done, 5 * sim::kMs);
  std::vector<u64> out(1);
  rig.primary->read(done, 5, 1, out);
  EXPECT_EQ(out[0], 3u);
}

TEST(Flashcache, WritebackAcksBeforePrimary) {
  Rig rig;
  FlashcacheLike fc(fc_cfg(), rig.ssd.get(), rig.primary.get());
  const auto done = fc.submit(wreq(0, 5, 1));
  EXPECT_LT(done, 5 * sim::kMs);  // SSD-speed ack
  EXPECT_EQ(rig.primary->stats().write_blocks, 0u);
}

TEST(Flashcache, DestagesWhenOverThreshold) {
  Rig rig;
  FlashcacheConfig cfg = fc_cfg(2048);
  cfg.dirty_thresh_pct = 0.10;
  FlashcacheLike fc(cfg, rig.ssd.get(), rig.primary.get());
  sim::SimTime t = 0;
  for (u64 i = 0; i < 1500; ++i) t = fc.submit(wreq(t, i * 7 % 100000));
  EXPECT_GT(fc.stats().destage_blocks, 0u);
  EXPECT_GT(rig.primary->stats().write_blocks, 0u);
  // Tolerant destaging: the ratio may overshoot but must be bounded well
  // below 100%.
  EXPECT_LT(fc.dirty_ratio(), 0.9);
}

TEST(Flashcache, SetConflictEvictsWithinSet) {
  Rig rig;
  // Tiny cache: 2 sets of 512 -> heavy conflict.
  FlashcacheLike fc(fc_cfg(1024), rig.ssd.get(), rig.primary.get());
  sim::SimTime t = 0;
  for (u64 i = 0; i < 5000; ++i) t = fc.submit(rreq(t, i));
  EXPECT_LE(fc.cached_blocks(), 1024u);
  EXPECT_GT(fc.stats().dropped_clean_blocks, 0u);
}

// The per-set bookkeeping visits only the slots it fills, evicts or
// destages, so its work per written block does not grow with the set size.
TEST(Flashcache, SetWorkIsConstantPerBlock) {
  for (const u32 set_blocks : {512u, 8192u}) {
    FlashcacheConfig cfg;
    cfg.set_blocks = set_blocks;
    cfg.cache_blocks = 4ull * set_blocks;
    MemDiskConfig dcfg;
    dcfg.capacity_blocks = 2 * cfg.cache_blocks;
    MemDisk ssd(dcfg);
    dcfg.capacity_blocks = 4 * cfg.cache_blocks;
    MemDisk primary(dcfg);
    FlashcacheLike fc(cfg, &ssd, &primary);
    common::Xoshiro256 rng(7);
    for (u64 op = 0; op < 4 * cfg.cache_blocks; ++op) {
      const u64 lba = rng.below(3 * cfg.cache_blocks);
      fc.submit(rng.below(10) != 0 ? wreq(0, lba) : rreq(0, lba));
    }
    ASSERT_GT(fc.stats().destage_blocks, 0u);
    ASSERT_GT(fc.stats().dropped_clean_blocks, 0u);
    const double per_block = static_cast<double>(fc.set_slot_visits()) /
                             static_cast<double>(fc.stats().app_write_blocks);
    EXPECT_LT(per_block, 4.0) << "set_blocks " << set_blocks;
  }
}

// --- golden Flashcache I/O -----------------------------------------------

// A reference model of Flashcache's per-set replacement, run beside the
// golden script to count which cases the script reaches. Each resident block
// keeps its LRU tick and the order in which it last joined the clean blocks:
// a block trickle-destaged with an old tick joins after newer clean fills,
// so the LRU clean victim and the first block to turn clean can differ. A
// dirty victim is destaged first, so the cache counts it dropped clean too.
struct FcModel {
  struct Entry {
    u64 lba;
    u64 tick;
    bool dirty;
    u64 clean_seq;
  };

  explicit FcModel(const FlashcacheConfig& c) : cfg(c) {
    cfg.cache_blocks -= cfg.cache_blocks % cfg.set_blocks;
    sets.resize(cfg.cache_blocks / cfg.set_blocks);
  }

  std::vector<Entry>& set_of(u64 lba) {
    return sets[(lba / cfg.set_blocks) % sets.size()];
  }
  Entry* find(u64 lba) {
    for (Entry& e : set_of(lba))
      if (e.lba == lba) return &e;
    return nullptr;
  }
  void touch(Entry& e) {
    e.tick = ++tick;
    if (!e.dirty) e.clean_seq = ++seq;
  }
  void allocate(u64 lba) {
    std::vector<Entry>& set = set_of(lba);
    const Entry fresh{lba, ++tick, false, ++seq};
    if (set.size() < cfg.set_blocks) {
      fills++;
      set.push_back(fresh);
      return;
    }
    Entry* lru_clean = nullptr;
    Entry* first_clean = nullptr;
    Entry* lru_dirty = nullptr;
    for (Entry& e : set) {
      Entry*& best = e.dirty ? lru_dirty : lru_clean;
      if (best == nullptr || e.tick < best->tick) best = &e;
      if (!e.dirty &&
          (first_clean == nullptr || e.clean_seq < first_clean->clean_seq))
        first_clean = &e;
    }
    if (lru_clean != nullptr) {
      clean_evictions++;
      destaged_victim_first += lru_clean != first_clean ? 1 : 0;
      *lru_clean = fresh;
    } else {
      dirty_evictions++;
      *lru_dirty = fresh;
    }
  }
  void trickle(u64 lba) {
    std::vector<Entry*> dirty;
    for (Entry& e : set_of(lba))
      if (e.dirty) dirty.push_back(&e);
    if (static_cast<double>(dirty.size()) <=
        cfg.dirty_thresh_pct * static_cast<double>(cfg.set_blocks))
      return;
    std::sort(dirty.begin(), dirty.end(),
              [](const Entry* a, const Entry* b) { return a->tick < b->tick; });
    dirty.resize(std::min<size_t>(dirty.size(), cfg.destage_batch));
    for (Entry* e : dirty) {
      e->dirty = false;
      e->clean_seq = ++seq;
    }
    trickled += dirty.size();
  }
  void write(u64 lba) {
    Entry* e = find(lba);
    if (e != nullptr) {
      touch(*e);
    } else {
      allocate(lba);
      e = find(lba);
    }
    if (!cfg.write_back) return;
    e->dirty = true;
    trickle(lba);
  }
  void read(u64 lba) {
    Entry* e = find(lba);
    if (e != nullptr) {
      read_hits++;
      touch(*e);
    } else {
      allocate(lba);
    }
  }
  [[nodiscard]] u64 dirty_blocks() const {
    u64 n = 0;
    for (const auto& set : sets)
      for (const Entry& e : set) n += e.dirty ? 1 : 0;
    return n;
  }

  FlashcacheConfig cfg;
  std::vector<std::vector<Entry>> sets;
  u64 tick = 0;
  u64 seq = 0;
  u64 fills = 0;
  u64 clean_evictions = 0;
  u64 dirty_evictions = 0;
  u64 trickled = 0;
  u64 read_hits = 0;
  // Clean evictions whose LRU victim turned clean after a newer clean block.
  u64 destaged_victim_first = 0;
};

// The golden scripts' devices: a cache device that is a RAID-5 of four
// recording members or one recording disk, and a recording primary, every
// call folding into `*crc`.
struct RecordingRig {
  RecordingRig(bool raid5, u64 member_blocks, u64 single_blocks, u32* crc) {
    MemDiskConfig ssd_cfg;
    ssd_cfg.op_latency = 20 * sim::kUs;
    if (raid5) {
      ssd_cfg.capacity_blocks = member_blocks;
      std::vector<blockdev::BlockDevice*> members;
      for (u64 i = 0; i < 4; ++i) {
        disks.push_back(
            std::make_unique<blockdev::RecordingDisk>(i, ssd_cfg, crc));
        members.push_back(disks.back().get());
      }
      array = std::make_unique<raid::RaidDevice>(
          raid::RaidConfig{raid::RaidLevel::kRaid5, 1}, members);
      ssd = array.get();
    } else {
      ssd_cfg.capacity_blocks = single_blocks;
      disks.push_back(
          std::make_unique<blockdev::RecordingDisk>(0, ssd_cfg, crc));
      ssd = disks.back().get();
    }
    MemDiskConfig primary_cfg;
    primary_cfg.capacity_blocks = 4096;
    primary_cfg.op_latency = 2 * sim::kMs;
    disks.push_back(
        std::make_unique<blockdev::RecordingDisk>(9, primary_cfg, crc));
    primary = disks.back().get();
  }

  // Folds the RAID counters and every DeviceStats into `crc`.
  [[nodiscard]] u32 fold_device_stats(u32 crc) const {
    if (array) {
      const raid::RaidStats& rs = array->raid_stats();
      for (u64 v : {rs.full_stripe_writes, rs.rmw_writes, rs.reconstruct_writes,
                    rs.degraded_reads})
        crc = common::crc32c_of(v, crc);
      crc = blockdev::fold_stats(array->stats(), crc);
    }
    for (const auto& d : disks) crc = blockdev::fold_stats(d->stats(), crc);
    return crc;
  }

  std::vector<std::unique_ptr<blockdev::RecordingDisk>> disks;  // primary last
  std::unique_ptr<raid::RaidDevice> array;
  blockdev::BlockDevice* ssd = nullptr;
  blockdev::BlockDevice* primary = nullptr;
};

struct GoldenFc {
  u32 io_crc = 0;     // every SSD-member and primary call, in arrival order
  u32 state_crc = 0;  // acks, read tags, CacheStats, dirty_ratio, DeviceStats
  FcModel model;
  cache::CacheStats stats;
};

// A seeded script of 1-3 block reads and writes (with and without tags)
// over 4 sets of 32 slots, three quarters of them in a hot region that
// spans every set, run on FlashcacheLike over a RAID-5 of four recording
// members or over one recording device, with a recording primary.
GoldenFc run_flashcache_script(bool raid5, const FlashcacheConfig& cfg) {
  GoldenFc g{.model = FcModel(cfg), .stats = {}};
  const RecordingRig rig(raid5, 64, 160, &g.io_crc);
  FlashcacheLike fc(cfg, rig.ssd, rig.primary);

  auto fold = [&g](u64 v) { g.state_crc = common::crc32c_of(v, g.state_crc); };
  common::Xoshiro256 rng(raid5 ? 24 : 42);
  sim::SimTime now = 0;
  for (int op = 0; op < 3000; ++op) {
    now += static_cast<sim::SimTime>(rng.below(200)) * sim::kUs;
    const bool write = rng.below(100) < 55;
    const auto n = static_cast<u32>(1 + rng.below(3));
    const u64 lba = rng.below(4) != 0 ? rng.below(160) : rng.below(1024);
    std::vector<u64> tags(n);
    for (u64& t : tags) t = rng.next();
    const bool with_tags = rng.below(4) != 0;
    if (write) {
      fold(static_cast<u64>(
          fc.submit(wreq(now, lba, n, with_tags ? tags.data() : nullptr))));
      for (u32 i = 0; i < n; ++i) g.model.write(lba + i);
    } else {
      fold(static_cast<u64>(
          fc.submit(rreq(now, lba, n, with_tags ? tags.data() : nullptr))));
      if (with_tags)
        for (u64 t : tags) fold(t);
      for (u32 i = 0; i < n; ++i) g.model.read(lba + i);
    }
  }
  g.stats = fc.stats();
  for (const auto& f : cache::kCacheStatsFields) fold(g.stats.*f.counter);
  fold(std::bit_cast<u64>(fc.dirty_ratio()));
  fold(fc.cached_blocks());
  g.state_crc = rig.fold_device_stats(g.state_crc);
  // The model agrees with what the cache reports.
  EXPECT_EQ(g.model.read_hits, g.stats.read_hit_blocks);
  EXPECT_EQ(g.model.clean_evictions + g.model.dirty_evictions,
            g.stats.dropped_clean_blocks);
  EXPECT_EQ(g.model.trickled + g.model.dirty_evictions, g.stats.destage_blocks);
  EXPECT_EQ(static_cast<double>(g.model.dirty_blocks()) /
                static_cast<double>(fc.cache_blocks()),
            fc.dirty_ratio());
  return g;
}

// Pins which commands FlashcacheLike sends the SSD (or the RAID-5 members
// under it) and primary storage, in what order and when, and what it
// reports: unused-slot fills, clean and dirty evictions (a dirty one
// destages synchronously), trickle destages, read hits and misses, and
// write-through. Any drift in victim choice, trickle order or metadata
// writes moves a CRC.
TEST(Baselines, GoldenFlashcacheIo) {
  enum Mode { kTrickle, kAllDirty, kWriteThrough };
  struct Pin {
    bool raid5;
    Mode mode;
    u32 io_crc;
    u32 state_crc;
  };
  const Pin pins[] = {
      {true, kTrickle, 0x167617f7, 0xfa515c36},
      {true, kAllDirty, 0x82e80080, 0x1637d3b9},
      {true, kWriteThrough, 0x4053055f, 0x254c4a8f},
      {false, kTrickle, 0x42b97ed1, 0x6aa965fd},
      {false, kAllDirty, 0x80169c67, 0xdf9b2794},
      {false, kWriteThrough, 0xdc996593, 0xe578ea3b},
  };
  for (const Pin& p : pins) {
    FlashcacheConfig cfg;
    cfg.cache_blocks = 4 * 32 + 5;  // rounds down to 4 sets
    cfg.set_blocks = 32;
    cfg.md_entries_per_block = 16;
    cfg.destage_batch = 4;
    cfg.dirty_thresh_pct = p.mode == kAllDirty ? 1.0 : 0.25;
    cfg.write_back = p.mode != kWriteThrough;
    const GoldenFc g = run_flashcache_script(p.raid5, cfg);
    const std::string ctx = std::string(p.raid5 ? "raid5" : "single") +
                            " mode " + std::to_string(p.mode);
    EXPECT_EQ(g.io_crc, p.io_crc) << ctx;
    EXPECT_EQ(g.state_crc, p.state_crc) << ctx;
    // The script reaches every case the pins are meant to cover.
    EXPECT_GT(g.model.fills, 0u) << ctx;
    EXPECT_GT(g.model.clean_evictions, 0u) << ctx;
    EXPECT_GT(g.stats.read_hit_blocks, 0u) << ctx;
    EXPECT_GT(g.stats.read_miss_blocks, 0u) << ctx;
    EXPECT_GT(g.stats.write_hit_blocks, 0u) << ctx;
    for (const auto& set : g.model.sets) EXPECT_FALSE(set.empty()) << ctx;
    switch (p.mode) {
      case kTrickle:
        EXPECT_GT(g.model.trickled, 0u) << ctx;
        EXPECT_GT(g.model.destaged_victim_first, 0u) << ctx;
        break;
      case kAllDirty:
        EXPECT_EQ(g.model.trickled, 0u) << ctx;
        EXPECT_GT(g.model.dirty_evictions, 0u) << ctx;
        break;
      case kWriteThrough:
        EXPECT_EQ(g.stats.destage_blocks, 0u) << ctx;
        break;
    }
  }
}

// --- Bcache ----------------------------------------------------------------------

// A cache smaller than one bucket rounds down to no buckets at all.
TEST(Bcache, RejectsCacheSmallerThanOneBucket) {
  Rig rig;
  EXPECT_THROW(BcacheLike(bc_cfg(511), rig.ssd.get(), rig.primary.get()),
               std::invalid_argument);
}

TEST(Bcache, WriteThenReadHits) {
  Rig rig;
  BcacheLike bc(bc_cfg(), rig.ssd.get(), rig.primary.get());
  const u64 tag = 888;
  bc.submit(wreq(0, 40, 1, &tag));
  u64 out = 0;
  bc.submit(rreq(1000, 40, 1, &out));
  EXPECT_EQ(out, 888u);
  EXPECT_EQ(bc.stats().read_hit_blocks, 1u);
}

TEST(Bcache, JournalFlushOnEveryCommit) {
  Rig rig;
  BcacheLike bc(bc_cfg(), rig.ssd.get(), rig.primary.get());
  sim::SimTime t = 0;
  for (int i = 0; i < 10; ++i) t = bc.submit(wreq(t, static_cast<u64>(i) * 1000));
  EXPECT_GT(rig.ssd->stats().flushes, 0u);
}

TEST(Bcache, GroupCommitSharesFlushes) {
  Rig rig;
  BcacheLike bc(bc_cfg(), rig.ssd.get(), rig.primary.get());
  // 64 writes issued at the same instant join few group commits.
  for (int i = 0; i < 64; ++i) bc.submit(wreq(0, static_cast<u64>(i) * 100));
  EXPECT_LT(rig.ssd->stats().flushes, 10u);
}

TEST(Bcache, WriteAckWaitsForJournalFlush) {
  Rig rig;
  BcacheLike bc(bc_cfg(), rig.ssd.get(), rig.primary.get());
  const auto done = bc.submit(wreq(0, 1));
  EXPECT_GE(done, 4 * sim::kMs);  // the flush barrier dominates
}

TEST(Bcache, NoFlushConfigSpeedsAcks) {
  Rig rig;
  BcacheConfig cfg = bc_cfg();
  cfg.flush_on_commit = false;
  BcacheLike bc(cfg, rig.ssd.get(), rig.primary.get());
  const auto done = bc.submit(wreq(0, 1));
  EXPECT_LT(done, 4 * sim::kMs);
}

TEST(Bcache, SequentialAppendsIntoBucket) {
  Rig rig;
  BcacheLike bc(bc_cfg(), rig.ssd.get(), rig.primary.get());
  // Two separate writes land at consecutive log offsets.
  bc.submit(wreq(0, 5000, 4));
  bc.submit(wreq(1, 9000, 4));
  u64 out[4] = {0, 0, 0, 0};
  bc.submit(rreq(2, 9000, 4, out));
  EXPECT_EQ(bc.stats().read_hit_blocks, 4u);
}

// A run longer than a bucket is appended one bucket at a time, so the
// next bucket's appends never overwrite its tail: written blocks and miss
// fills both read back their own tags.
TEST(Bcache, RunLongerThanBucketKeepsItsTail) {
  Rig rig;
  BcacheConfig cfg = bc_cfg(6 * 16);
  cfg.bucket_blocks = 16;
  BcacheLike bc(cfg, rig.ssd.get(), rig.primary.get());
  std::vector<u64> tags(20);
  for (u64 i = 0; i < tags.size(); ++i) tags[i] = 1000 + i;
  bc.submit(wreq(0, 100, 20, tags.data()));
  const u64 other[4] = {7, 7, 7, 7};
  bc.submit(wreq(1, 500, 4, other));
  std::vector<u64> out(20);
  bc.submit(rreq(2, 100, 20, out.data()));
  EXPECT_EQ(bc.stats().read_hit_blocks, 20u);
  EXPECT_EQ(out, tags);

  // A 20-block miss fill, then another append, then the same read as hits.
  for (u64 i = 0; i < tags.size(); ++i) tags[i] = 2000 + i;
  rig.primary->write(3, 300, 20, tags);
  bc.submit(rreq(4, 300, 20, out.data()));
  bc.submit(wreq(5, 600, 4, other));
  std::fill(out.begin(), out.end(), 0);
  bc.submit(rreq(6, 300, 20, out.data()));
  EXPECT_EQ(bc.stats().read_hit_blocks, 40u);
  EXPECT_EQ(out, tags);
}

TEST(Bcache, CleanFillsSkipJournal) {
  Rig rig;
  BcacheLike bc(bc_cfg(), rig.ssd.get(), rig.primary.get());
  const auto flushes = rig.ssd->stats().flushes;
  bc.submit(rreq(0, 123));
  EXPECT_EQ(rig.ssd->stats().flushes, flushes);  // no journal for clean
}

TEST(Bcache, WritebackDestagesOverThreshold) {
  Rig rig;
  BcacheConfig cfg = bc_cfg(2048);
  cfg.writeback_percent = 0.10;
  BcacheLike bc(cfg, rig.ssd.get(), rig.primary.get());
  sim::SimTime t = 0;
  for (u64 i = 0; i < 1000; ++i) t = bc.submit(wreq(t, i * 13 % 50000));
  EXPECT_GT(bc.stats().destage_blocks, 0u);
  // Aggressive destaging keeps the dirty ratio near the threshold.
  EXPECT_LT(bc.dirty_ratio(), 0.25);
}

TEST(Bcache, BucketReclaimDropsCleanDestagesDirty) {
  Rig rig;
  BcacheConfig cfg = bc_cfg(1024);  // 2 buckets only
  cfg.writeback_percent = 0.95;     // keep destaging out of the way
  BcacheLike bc(cfg, rig.ssd.get(), rig.primary.get());
  sim::SimTime t = 0;
  // Fill with clean (reads) then force reclaim with more fills.
  for (u64 i = 0; i < 3000; ++i) t = bc.submit(rreq(t, i));
  EXPECT_GT(bc.stats().dropped_clean_blocks, 0u);
  EXPECT_LE(bc.cached_blocks(), 1024u);
}

TEST(Bcache, HonorsFlush) {
  Rig rig;
  BcacheLike bc(bc_cfg(), rig.ssd.get(), rig.primary.get());
  const auto before = rig.ssd->stats().flushes;
  bc.flush(0);
  EXPECT_GT(rig.ssd->stats().flushes, before);
}

TEST(Bcache, WriteThroughGoesToPrimary) {
  Rig rig;
  BcacheConfig cfg = bc_cfg();
  cfg.write_back = false;
  BcacheLike bc(cfg, rig.ssd.get(), rig.primary.get());
  const u64 tag = 11;
  bc.submit(wreq(0, 9, 1, &tag));
  std::vector<u64> out(1);
  rig.primary->read(0, 9, 1, out);
  EXPECT_EQ(out[0], 11u);
  EXPECT_EQ(bc.dirty_ratio(), 0.0);
}

// --- golden Bcache I/O ---------------------------------------------------

// Forwards every call to `inner` unchanged and logs the block commands with
// the background flag in force, so the golden Bcache script can tell which
// cases it reached: log appends and their wrap-around, journal commits,
// merged hit reads, and writeback-thread versus foreground destages.
class Tap final : public blockdev::BlockDevice {
 public:
  struct Op {
    u8 op;  // 1 read, 2 write, 5 flush
    u64 lba;
    u32 n;
    bool background;
  };

  explicit Tap(BlockDevice* inner) : inner_(inner) {}

  [[nodiscard]] u64 capacity_blocks() const override {
    return inner_->capacity_blocks();
  }
  blockdev::IoResult read(sim::SimTime now, u64 lba, u32 n,
                          std::span<u64> tags_out) override {
    ops.push_back({1, lba, n, background_});
    return inner_->read(now, lba, n, tags_out);
  }
  blockdev::IoResult write(sim::SimTime now, u64 lba, u32 n,
                           std::span<const u64> tags) override {
    ops.push_back({2, lba, n, background_});
    return inner_->write(now, lba, n, tags);
  }
  blockdev::IoResult write_payload(sim::SimTime now, u64 lba,
                                   blockdev::Payload payload) override {
    return inner_->write_payload(now, lba, std::move(payload));
  }
  Result<blockdev::Payload> read_payload(sim::SimTime now, u64 lba,
                                         sim::SimTime* done) override {
    return inner_->read_payload(now, lba, done);
  }
  blockdev::IoResult flush(sim::SimTime now) override {
    ops.push_back({5, 0, 0, background_});
    return inner_->flush(now);
  }
  blockdev::IoResult trim(sim::SimTime now, u64 lba, u64 n) override {
    return inner_->trim(now, lba, n);
  }
  [[nodiscard]] const blockdev::DeviceStats& stats() const override {
    return inner_->stats();
  }
  void fail() override { inner_->fail(); }
  void heal() override { inner_->heal(); }
  [[nodiscard]] bool failed() const override { return inner_->failed(); }
  void corrupt(u64 lba) override { inner_->corrupt(lba); }
  void set_background(bool background) override {
    if (background && !background_) background_sessions++;
    background_ = background;
    inner_->set_background(background);
  }

  std::vector<Op> ops;
  u64 background_sessions = 0;

 private:
  BlockDevice* inner_;
  bool background_ = false;
};

struct GoldenBc {
  u32 io_crc = 0;     // every SSD-member and primary call, in arrival order
  u32 state_crc = 0;  // acks, read tags, CacheStats, dirty_ratio, DeviceStats
  cache::CacheStats stats;
  u64 wraps = 0;             // log appends below the one before
  u64 journal_writes = 0;    // commits issued
  u64 merged_hit_reads = 0;  // multi-block reads of the log
  u64 cache_flushes = 0;
  u64 bg_destage_blocks = 0;  // writeback thread (over writeback_percent)
  u64 fg_destage_blocks = 0;  // bucket reclaim
  u64 bg_sessions = 0;
  u64 primary_flushes = 0;
};

// A seeded script of 1-3 block reads and writes (with and without tags) and
// flushes over a hot region of twice the cache's 6 buckets of 16 blocks, run
// on BcacheLike over a RAID-5 of four recording members or over one
// recording device, with a recording primary.
GoldenBc run_bcache_script(bool raid5, const BcacheConfig& cfg) {
  GoldenBc g;
  const RecordingRig rig(raid5, 40, 120, &g.io_crc);
  Tap ssd_tap(rig.ssd);
  Tap primary_tap(rig.primary);
  BcacheLike bc(cfg, &ssd_tap, &primary_tap);

  auto fold = [&g](u64 v) { g.state_crc = common::crc32c_of(v, g.state_crc); };
  common::Xoshiro256 rng(raid5 ? 25 : 52);
  sim::SimTime now = 0;
  for (int op = 0; op < 3000; ++op) {
    now += static_cast<sim::SimTime>(rng.below(120)) * sim::kUs;
    const bool write = rng.below(100) < 55;
    const auto n = static_cast<u32>(1 + rng.below(3));
    const u64 lba = rng.below(4) != 0 ? rng.below(192) : rng.below(1024);
    std::vector<u64> tags(n);
    for (u64& t : tags) t = rng.next();
    const bool with_tags = rng.below(4) != 0;
    if (rng.below(50) == 0) {
      fold(static_cast<u64>(bc.flush(now)));
    } else if (write) {
      fold(static_cast<u64>(
          bc.submit(wreq(now, lba, n, with_tags ? tags.data() : nullptr))));
    } else {
      fold(static_cast<u64>(
          bc.submit(rreq(now, lba, n, with_tags ? tags.data() : nullptr))));
      if (with_tags)
        for (u64 t : tags) fold(t);
    }
  }
  g.stats = bc.stats();
  for (const auto& f : cache::kCacheStatsFields) fold(g.stats.*f.counter);
  fold(std::bit_cast<u64>(bc.dirty_ratio()));
  fold(bc.cached_blocks());
  g.state_crc = rig.fold_device_stats(g.state_crc);

  const u64 journal_base =
      cfg.cache_blocks - cfg.cache_blocks % cfg.bucket_blocks;
  u64 last_append = 0;
  for (const Tap::Op& o : ssd_tap.ops) {
    if (o.op == 5) g.cache_flushes++;
    if (o.op == 1 && o.n > 1) g.merged_hit_reads++;
    if (o.op != 2) continue;
    if (o.lba >= journal_base) {
      g.journal_writes++;
      continue;
    }
    g.wraps += o.lba < last_append ? 1 : 0;
    last_append = o.lba;
  }
  for (const Tap::Op& o : primary_tap.ops) {
    if (o.op == 5) g.primary_flushes++;
    if (o.op != 2 || !cfg.write_back) continue;
    (o.background ? g.bg_destage_blocks : g.fg_destage_blocks) += o.n;
  }
  g.bg_sessions = primary_tap.background_sessions;
  return g;
}

// Pins which commands BcacheLike sends the SSD (or the RAID-5 members under
// it) and primary storage, in what order and when, and what it reports:
// log appends wrapping around the buckets, reclaims that drop clean blocks
// and destage dirty ones, writeback-thread destages over writeback_percent,
// group-committed journal writes (with and without their flush), merged
// hit reads, miss fills, and write-through. Any drift in bucket order,
// victim choice, destage runs or commits moves a CRC.
TEST(Baselines, GoldenBcacheIo) {
  enum Mode { kFlushCommit, kNoFlushCommit, kWriteThrough };
  struct Pin {
    bool raid5;
    Mode mode;
    u32 io_crc;
    u32 state_crc;
  };
  const Pin pins[] = {
      {true, kFlushCommit, 0xa3450430, 0xf643dcaf},
      {true, kNoFlushCommit, 0x0f8ae47d, 0x1925609f},
      {true, kWriteThrough, 0x5c34dde3, 0xa246b9eb},
      {false, kFlushCommit, 0x36fbeaf1, 0xbfcef1c0},
      {false, kNoFlushCommit, 0x69e9ede4, 0xcb3a2fef},
      {false, kWriteThrough, 0xf558e65a, 0x003ff149},
  };
  for (const Pin& p : pins) {
    BcacheConfig cfg;
    cfg.cache_blocks = 6 * 16 + 5;  // rounds down to 6 buckets
    cfg.bucket_blocks = 16;
    cfg.journal_blocks = 8;
    cfg.destage_batch = 3;
    cfg.writeback_percent = 0.4;
    cfg.write_back = p.mode != kWriteThrough;
    cfg.flush_on_commit = p.mode == kFlushCommit;
    const GoldenBc g = run_bcache_script(p.raid5, cfg);
    const std::string ctx = std::string(p.raid5 ? "raid5" : "single") +
                            " mode " + std::to_string(p.mode);
    EXPECT_EQ(g.io_crc, p.io_crc) << ctx;
    EXPECT_EQ(g.state_crc, p.state_crc) << ctx;
    // The script reaches every case the pins are meant to cover.
    EXPECT_GT(g.wraps, 0u) << ctx;
    EXPECT_GT(g.stats.dropped_clean_blocks, 0u) << ctx;
    EXPECT_GT(g.merged_hit_reads, 0u) << ctx;
    EXPECT_GT(g.stats.read_hit_blocks, 0u) << ctx;
    EXPECT_GT(g.stats.fetch_blocks, 0u) << ctx;
    EXPECT_GT(g.stats.write_hit_blocks, 0u) << ctx;
    if (p.mode == kWriteThrough) {
      EXPECT_EQ(g.stats.destage_blocks, 0u) << ctx;
      EXPECT_EQ(g.journal_writes, 0u) << ctx;
      EXPECT_EQ(g.primary_flushes,
                g.stats.app_write_ops + g.stats.app_flushes)
          << ctx;
      continue;
    }
    EXPECT_GT(g.bg_destage_blocks, 0u) << ctx;
    EXPECT_GT(g.fg_destage_blocks, 0u) << ctx;
    EXPECT_EQ(g.bg_destage_blocks + g.fg_destage_blocks,
              g.stats.destage_blocks)
        << ctx;
    // Every write-back write and every writeback-thread pass asks for a
    // commit; fewer journal writes means some requests shared one.
    EXPECT_LT(g.journal_writes, g.stats.app_write_ops + g.bg_sessions) << ctx;
    EXPECT_GT(g.stats.app_flushes, 0u) << ctx;
    EXPECT_EQ(g.cache_flushes,
              g.stats.app_flushes +
                  (p.mode == kFlushCommit ? g.journal_writes : 0u))
        << ctx;
  }
}

// --- shared write-back property: WB beats WT on a slow primary (Table 2) ----------

template <typename Cache, typename Config>
double measure_write_mbps(Config cfg, bool write_back) {
  Rig rig;
  cfg.write_back = write_back;
  // 90% dirty threshold as in the paper's §5.4 configuration, so the
  // write-back path is not destage-bound within the measurement window.
  if constexpr (std::is_same_v<Config, BcacheConfig>) {
    cfg.writeback_percent = 0.9;
  } else {
    cfg.dirty_thresh_pct = 0.9;
  }
  Cache c(cfg, rig.ssd.get(), rig.primary.get());
  common::Xoshiro256 rng(1);
  // Closed loop at queue depth 32 (Table 2 uses iodepth 32 x 4 threads).
  std::priority_queue<std::pair<sim::SimTime, int>,
                      std::vector<std::pair<sim::SimTime, int>>,
                      std::greater<>>
      heap;
  for (int s = 0; s < 32; ++s) heap.emplace(0, s);
  const int ops = 2000;
  sim::SimTime last = 0;
  for (int i = 0; i < ops; ++i) {
    auto [now, stream] = heap.top();
    heap.pop();
    AppRequest r;
    r.now = now;
    r.is_write = true;
    r.lba = rng.below(40000);
    r.nblocks = 1;
    const sim::SimTime done = c.submit(r);
    last = std::max(last, done);
    heap.emplace(done, stream);
  }
  return sim::mb_per_sec(static_cast<u64>(ops) * kBlockSize, last);
}

TEST(Baselines, WritebackBeatsWriteThrough) {
  const double fc_wb = measure_write_mbps<FlashcacheLike>(fc_cfg(8192), true);
  const double fc_wt = measure_write_mbps<FlashcacheLike>(fc_cfg(8192), false);
  EXPECT_GT(fc_wb / fc_wt, 3.0);  // paper: 17.5x on real hardware

  const double bc_wb = measure_write_mbps<BcacheLike>(bc_cfg(8192), true);
  const double bc_wt = measure_write_mbps<BcacheLike>(bc_cfg(8192), false);
  EXPECT_GT(bc_wb / bc_wt, 1.5);  // paper: 4.3x (flush-limited)
}

}  // namespace
}  // namespace srcache::baselines
