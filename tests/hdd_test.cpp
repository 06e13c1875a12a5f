#include <gtest/gtest.h>

#include <queue>

#include "common/rng.hpp"
#include "hdd/iscsi_target.hpp"
#include "hdd/sim_hdd.hpp"

namespace srcache::hdd {
namespace {

using sim::SimTime;

HddConfig small_hdd() {
  HddConfig cfg;
  cfg.capacity_bytes = 1 * GiB;
  return cfg;
}

TEST(SimHdd, SequentialIsCheap) {
  SimHdd d(small_hdd());
  const u64 mid = d.capacity_blocks() / 2;
  const auto r1 = d.write(0, mid, 16, {});  // long seek from block 0
  const auto r2 = d.write(r1.done, mid + 16, 16, {});  // head-adjacent
  const SimTime t1 = r1.done;
  const SimTime t2 = r2.done - r1.done;
  EXPECT_LT(t2, t1);
  EXPECT_LT(t2, 2 * sim::kMs);
}

TEST(SimHdd, RandomPaysSeekAndRotation) {
  SimHdd d(small_hdd());
  const auto r = d.read(0, d.capacity_blocks() / 2, 1, {});
  EXPECT_GT(r.done, 5 * sim::kMs);
}

TEST(SimHdd, SequentialBandwidthNearTransferRate) {
  SimHdd d(small_hdd());
  SimTime t = 0;
  const u64 ops = 2000;
  for (u64 i = 0; i < ops; ++i) t = d.write(t, i * 32, 32, {}).done;
  const double mbps = sim::mb_per_sec(ops * 32 * kBlockSize, t);
  EXPECT_GT(mbps, 100.0);
  EXPECT_LT(mbps, 155.0);
}

TEST(SimHdd, RandomIopsAreDisklike) {
  SimHdd d(small_hdd());
  common::Xoshiro256 rng(1);
  SimTime t = 0;
  const u64 ops = 500;
  for (u64 i = 0; i < ops; ++i)
    t = d.read(t, rng.below(d.capacity_blocks()), 1, {}).done;
  const double iops = static_cast<double>(ops) / sim::to_seconds(t);
  EXPECT_GT(iops, 50.0);
  EXPECT_LT(iops, 200.0);  // 7.2K RPM class
}

TEST(SimHdd, ContentAndFaults) {
  SimHdd d(small_hdd());
  const std::vector<u64> tags = {42};
  d.write(0, 7, 1, tags);
  std::vector<u64> out(1);
  d.read(0, 7, 1, out);
  EXPECT_EQ(out[0], 42u);
  d.fail();
  EXPECT_EQ(d.read(0, 7, 1, out).error, ErrorCode::kDeviceFailed);
}

IscsiConfig small_iscsi() {
  IscsiConfig cfg;
  cfg.disk.capacity_bytes = 1 * GiB;
  // Most tests exercise the disk path; the server page cache is tested
  // separately.
  cfg.server_cache_bytes = 0;
  cfg.dirty_limit_bytes = 0;
  return cfg;
}

TEST(IscsiTarget, ServerCacheServesRepeatedReads) {
  IscsiConfig cfg;
  cfg.disk.capacity_bytes = 1 * GiB;
  cfg.server_cache_bytes = 64 * MiB;
  cfg.dirty_limit_bytes = 16 * MiB;
  IscsiTarget t(cfg);
  const std::vector<u64> tags = {5};
  t.write(0, 10, 1, tags);
  std::vector<u64> out(1, 0);
  // First read may hit RAM (the write populated it); check content + speed.
  const auto r1 = t.read(sim::kSec, 10, 1, out);
  EXPECT_EQ(out[0], 5u);
  const auto r2 = t.read(2 * sim::kSec, 10, 1, out);
  EXPECT_EQ(out[0], 5u);
  EXPECT_LT(r2.done - 2 * sim::kSec, 2 * sim::kMs);  // RAM + link, no seek
  EXPECT_GT(t.ram_hits(), 0u);
  (void)r1;
}

// The server page cache keeps two generations of server_cache_bytes / 2
// each: a block is resident while it sits in the current or the previous
// generation, and filling the current one makes it the previous one and
// drops the one before. A trim or an overwrite replaces the block in both.
TEST(IscsiTarget, PageCacheKeepsTwoGenerations) {
  IscsiConfig cfg = small_iscsi();
  cfg.server_cache_bytes = 8 * kBlockSize;  // two generations of 4 blocks
  IscsiTarget t(cfg);
  const auto write_tag = [&](u64 lba, u64 tag) {
    EXPECT_TRUE(t.write(0, lba, 1, std::vector<u64>{tag}).ok());
  };
  // Reads one block, checks its tag and returns whether it came from RAM.
  const auto read_hits = [&](u64 lba, u64 want) {
    const u64 hits = t.ram_hits();
    std::vector<u64> out(1, ~u64{0});
    EXPECT_TRUE(t.read(0, lba, 1, out).ok());
    EXPECT_EQ(out[0], want) << "lba " << lba;
    return t.ram_hits() > hits;
  };
  // Writes 0..3 fill a generation, 4..7 the next: {0..3} are dropped.
  for (u64 lba = 0; lba < 10; ++lba) write_tag(lba, 100 + lba);
  // Current {8, 9}, previous {4, 5, 6, 7}.
  EXPECT_TRUE(read_hits(8, 108));
  EXPECT_TRUE(read_hits(5, 105));
  EXPECT_TRUE(read_hits(9, 109));
  EXPECT_TRUE(read_hits(4, 104));
  // A trim erases the block from whichever generation holds it; the miss
  // reads the trimmed block from disk and caches it again.
  ASSERT_TRUE(t.trim(0, 6, 1).ok());
  ASSERT_TRUE(t.trim(0, 9, 1).ok());
  EXPECT_FALSE(read_hits(6, 0));
  EXPECT_FALSE(read_hits(9, 0));
  EXPECT_TRUE(read_hits(6, 0));
  // Current {8, 6, 9}. Overwriting 5, in the previous generation, moves it
  // to the current one and rolls over: previous {8, 6, 9, 5}.
  write_tag(5, 205);
  EXPECT_TRUE(read_hits(5, 205));
  EXPECT_TRUE(read_hits(8, 108));
  // 4 and 7 are two generations old now, 0..3 three.
  EXPECT_FALSE(read_hits(7, 107));
  EXPECT_FALSE(read_hits(4, 104));
  EXPECT_FALSE(read_hits(0, 100));
  // The misses refilled the current generation {7, 4, 0}: they hit now.
  EXPECT_TRUE(read_hits(7, 107));
  EXPECT_TRUE(read_hits(0, 100));
  EXPECT_FALSE(read_hits(1, 101));  // fills it and rolls over
  // Previous {7, 4, 0, 1}: 5's generation is gone.
  EXPECT_FALSE(read_hits(5, 205));
  EXPECT_TRUE(read_hits(4, 104));
  write_tag(2, 102);
  write_tag(3, 103);
  write_tag(9, 309);  // rolls over: previous {5, 2, 3, 9}
  EXPECT_FALSE(read_hits(4, 104));
  EXPECT_TRUE(read_hits(9, 309));
  EXPECT_TRUE(read_hits(5, 205));
}

TEST(IscsiTarget, ServerCacheAbsorbsWriteBursts) {
  IscsiConfig cfg;
  cfg.disk.capacity_bytes = 1 * GiB;
  cfg.server_cache_bytes = 128 * MiB;
  cfg.dirty_limit_bytes = 64 * MiB;
  IscsiTarget t(cfg);
  common::Xoshiro256 rng(4);
  // A random 4 KiB write burst within the dirty limit completes at link
  // speed, far faster than the spindles could absorb.
  sim::SimTime now = 0;
  const int ops = 500;
  for (int i = 0; i < ops; ++i)
    now = t.write(now, rng.below(t.capacity_blocks()), 1, {}).done;
  const double iops = static_cast<double>(ops) / sim::to_seconds(now);
  EXPECT_GT(iops, 2000.0);
}

TEST(IscsiTarget, CapacityIsHalfOfDisksRaid10) {
  IscsiTarget t(small_iscsi());
  EXPECT_EQ(t.capacity_blocks(), 4 * (1 * GiB / kBlockSize));
}

TEST(IscsiTarget, RoundTripContent) {
  IscsiTarget t(small_iscsi());
  const std::vector<u64> tags = {1, 2, 3, 4};
  ASSERT_TRUE(t.write(0, 100, 4, tags).ok());
  std::vector<u64> out(4);
  ASSERT_TRUE(t.read(0, 100, 4, out).ok());
  EXPECT_EQ(out, tags);
}

TEST(IscsiTarget, SequentialThroughputCappedByLink) {
  IscsiTarget t(small_iscsi());
  SimTime now = 0;
  const u64 ops = 500;
  // Deep pipeline of large sequential writes: the 1 Gbps link binds.
  using Entry = std::pair<SimTime, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int i = 0; i < 8; ++i) heap.emplace(0, i);
  u64 cursor = 0;
  SimTime last = 0;
  for (u64 i = 0; i < ops; ++i) {
    auto [tm, s] = heap.top();
    heap.pop();
    const auto r = t.write(tm, cursor, 256, {});
    cursor = (cursor + 256) % (t.capacity_blocks() - 256);
    last = std::max(last, r.done);
    heap.emplace(r.done, s);
  }
  (void)now;
  const double mbps = sim::mb_per_sec(ops * 256 * kBlockSize, last);
  EXPECT_GT(mbps, 60.0);
  EXPECT_LT(mbps, 120.0);  // 1 Gbps iSCSI
}

TEST(IscsiTarget, RandomWritesAreSlow) {
  IscsiTarget t(small_iscsi());
  common::Xoshiro256 rng(3);
  SimTime now = 0;
  const u64 ops = 300;
  for (u64 i = 0; i < ops; ++i)
    now = t.write(now, rng.below(t.capacity_blocks()), 1, {}).done;
  const double iops = static_cast<double>(ops) / sim::to_seconds(now);
  EXPECT_LT(iops, 1500.0);  // HDD-array bound, far below any SSD
}

TEST(IscsiTarget, SurvivesSingleDiskFailure) {
  IscsiTarget t(small_iscsi());
  const std::vector<u64> tags = {9};
  ASSERT_TRUE(t.write(0, 50, 1, tags).ok());
  // RAID-10: every chunk is mirrored, so any single disk may die.
  for (size_t d = 0; d < t.num_disks(); ++d) {
    t.disk(d).fail();
    std::vector<u64> out(1, 0);
    EXPECT_TRUE(t.read(0, 50, 1, out).ok()) << "disk " << d;
    EXPECT_EQ(out[0], 9u);
    t.disk(d).heal();
  }
}

TEST(IscsiTarget, FlushPropagates) {
  IscsiTarget t(small_iscsi());
  t.write(0, 0, 8, {});
  EXPECT_TRUE(t.flush(0).ok());
}

}  // namespace
}  // namespace srcache::hdd
