#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "block/mem_disk.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "raid/raid_device.hpp"
#include "raid/rebuild.hpp"
#include "recording_disk.hpp"

namespace srcache::raid {
namespace {

using blockdev::MemDisk;
using blockdev::MemDiskConfig;
using blockdev::RecordingDisk;
using blockdev::fold_stats;

struct Rig {
  std::vector<std::unique_ptr<MemDisk>> disks;
  std::unique_ptr<RaidDevice> raid;

  Rig(RaidLevel level, u32 chunk, int n = 4, u64 blocks_per_dev = 4096) {
    MemDiskConfig cfg;
    cfg.capacity_blocks = blocks_per_dev;
    cfg.op_latency = 10 * sim::kUs;
    for (int i = 0; i < n; ++i) disks.push_back(std::make_unique<MemDisk>(cfg));
    std::vector<blockdev::BlockDevice*> members;
    for (auto& d : disks) members.push_back(d.get());
    raid = std::make_unique<RaidDevice>(RaidConfig{level, chunk}, members);
  }
};

// --- construction ------------------------------------------------------------

TEST(Raid, CapacityPerLevel) {
  EXPECT_EQ(Rig(RaidLevel::kRaid0, 4).raid->capacity_blocks(), 4u * 4096u);
  EXPECT_EQ(Rig(RaidLevel::kRaid1, 4).raid->capacity_blocks(), 2u * 4096u);
  EXPECT_EQ(Rig(RaidLevel::kRaid4, 4).raid->capacity_blocks(), 3u * 4096u);
  EXPECT_EQ(Rig(RaidLevel::kRaid5, 4).raid->capacity_blocks(), 3u * 4096u);
}

TEST(Raid, RejectsBadConfigs) {
  MemDiskConfig cfg;
  std::vector<blockdev::BlockDevice*> one;
  MemDisk d(cfg);
  one.push_back(&d);
  EXPECT_THROW(RaidDevice(RaidConfig{RaidLevel::kRaid0, 1}, one),
               std::invalid_argument);
}

TEST(Raid, Raid1NeedsEvenCount) {
  MemDiskConfig cfg;
  MemDisk a(cfg), b(cfg), c(cfg);
  std::vector<blockdev::BlockDevice*> three{&a, &b, &c};
  EXPECT_THROW(RaidDevice(RaidConfig{RaidLevel::kRaid1, 1}, three),
               std::invalid_argument);
}

// --- content round trips across levels and chunk sizes (property sweep) ------

struct RoundTripParam {
  RaidLevel level;
  u32 chunk;
};

class RaidRoundTrip : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(RaidRoundTrip, RandomWritesReadBack) {
  const auto p = GetParam();
  Rig rig(p.level, p.chunk);
  common::Xoshiro256 rng(1234);
  // Model of expected contents.
  std::vector<u64> model(rig.raid->capacity_blocks(), 0);
  for (int op = 0; op < 400; ++op) {
    const u32 n = static_cast<u32>(rng.range(1, 16));
    const u64 lba = rng.below(rig.raid->capacity_blocks() - n);
    std::vector<u64> tags(n);
    for (u32 i = 0; i < n; ++i) {
      tags[i] = rng.next() | 1;
      model[lba + i] = tags[i];
    }
    ASSERT_TRUE(rig.raid->write(0, lba, n, tags).ok());
  }
  for (int probe = 0; probe < 300; ++probe) {
    const u32 n = static_cast<u32>(rng.range(1, 16));
    const u64 lba = rng.below(rig.raid->capacity_blocks() - n);
    std::vector<u64> out(n, 0);
    ASSERT_TRUE(rig.raid->read(0, lba, n, out).ok());
    for (u32 i = 0; i < n; ++i) EXPECT_EQ(out[i], model[lba + i]);
  }
}

TEST_P(RaidRoundTrip, ParityConsistentAfterRandomWrites) {
  const auto p = GetParam();
  Rig rig(p.level, p.chunk);
  common::Xoshiro256 rng(77);
  for (int op = 0; op < 300; ++op) {
    const u32 n = static_cast<u32>(rng.range(1, 24));
    const u64 lba = rng.below(rig.raid->capacity_blocks() - n);
    std::vector<u64> tags(n);
    for (u32 i = 0; i < n; ++i) tags[i] = rng.next();
    ASSERT_TRUE(rig.raid->write(0, lba, n, tags).ok());
    EXPECT_TRUE(rig.raid->verify_parity(lba)) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndChunks, RaidRoundTrip,
    ::testing::Values(RoundTripParam{RaidLevel::kRaid0, 1},
                      RoundTripParam{RaidLevel::kRaid0, 16},
                      RoundTripParam{RaidLevel::kRaid1, 1},
                      RoundTripParam{RaidLevel::kRaid1, 8},
                      RoundTripParam{RaidLevel::kRaid4, 1},
                      RoundTripParam{RaidLevel::kRaid4, 8},
                      RoundTripParam{RaidLevel::kRaid5, 1},
                      RoundTripParam{RaidLevel::kRaid5, 4},
                      RoundTripParam{RaidLevel::kRaid5, 16}),
    [](const auto& info) {
      return std::string(to_string(info.param.level)).substr(5) + "_chunk" +
             std::to_string(info.param.chunk);
    });

// --- small-write behaviour ---------------------------------------------------

TEST(Raid5, FullStripeWriteAvoidsReads) {
  Rig rig(RaidLevel::kRaid5, 4);  // stripe = 3 data chunks of 4 = 12 blocks
  const u64 before_reads = rig.raid->stats().read_blocks;
  std::vector<u64> tags(12, 1);
  ASSERT_TRUE(rig.raid->write(0, 0, 12, tags).ok());
  EXPECT_EQ(rig.raid->stats().read_blocks, before_reads);
  EXPECT_EQ(rig.raid->raid_stats().full_stripe_writes, 1u);
  // 12 data + 4 parity blocks written.
  EXPECT_EQ(rig.raid->stats().write_blocks, 16u);
}

TEST(Raid5, SmallWriteTriggersRmw) {
  Rig rig(RaidLevel::kRaid5, 4);
  std::vector<u64> tag = {42};
  ASSERT_TRUE(rig.raid->write(0, 0, 1, tag).ok());
  EXPECT_EQ(rig.raid->raid_stats().rmw_writes, 1u);
  // Read old data + old parity, write new data + new parity.
  EXPECT_EQ(rig.raid->stats().read_blocks, 2u);
  EXPECT_EQ(rig.raid->stats().write_blocks, 2u);
}

TEST(Raid5, NearFullStripeUsesReconstructWrite) {
  Rig rig(RaidLevel::kRaid5, 4);
  // 11 of 12 data blocks: reconstruct (1 read) beats RMW (11+rows reads).
  std::vector<u64> tags(11, 3);
  ASSERT_TRUE(rig.raid->write(0, 0, 11, tags).ok());
  EXPECT_EQ(rig.raid->raid_stats().reconstruct_writes, 1u);
  EXPECT_EQ(rig.raid->stats().read_blocks, 1u);
}

TEST(Raid5, SmallWritesCostMoreThanRaid0) {
  // The small-write problem (§2.2): same workload, higher device traffic.
  Rig r5(RaidLevel::kRaid5, 1);
  Rig r0(RaidLevel::kRaid0, 1);
  common::Xoshiro256 rng(5);
  for (int i = 0; i < 200; ++i) {
    const u64 lba = rng.below(r5.raid->capacity_blocks());
    std::vector<u64> tag = {rng.next()};
    r5.raid->write(0, lba, 1, tag);
    r0.raid->write(0, lba % r0.raid->capacity_blocks(), 1, tag);
  }
  const u64 t5 = r5.raid->stats().total_blocks();
  const u64 t0 = r0.raid->stats().total_blocks();
  EXPECT_GE(t5, 4 * t0 - 4);  // 4 I/Os per small write vs 1
}

// --- degraded operation ------------------------------------------------------

class RaidDegraded : public ::testing::TestWithParam<RaidLevel> {};

TEST_P(RaidDegraded, ReadsSurviveSingleFailure) {
  Rig rig(GetParam(), 4);
  common::Xoshiro256 rng(9);
  std::vector<u64> model(rig.raid->capacity_blocks(), 0);
  for (int op = 0; op < 200; ++op) {
    const u64 lba = rng.below(rig.raid->capacity_blocks());
    std::vector<u64> tag = {rng.next() | 1};
    model[lba] = tag[0];
    ASSERT_TRUE(rig.raid->write(0, lba, 1, tag).ok());
  }
  rig.disks[1]->fail();
  EXPECT_FALSE(rig.raid->failed());  // still serviceable
  for (int probe = 0; probe < 200; ++probe) {
    const u64 lba = rng.below(rig.raid->capacity_blocks());
    std::vector<u64> out(1, 0);
    ASSERT_TRUE(rig.raid->read(0, lba, 1, out).ok());
    EXPECT_EQ(out[0], model[lba]);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, RaidDegraded,
                         ::testing::Values(RaidLevel::kRaid1, RaidLevel::kRaid4,
                                           RaidLevel::kRaid5),
                         [](const auto& info) {
                           return std::string(to_string(info.param)).substr(5);
                         });

TEST(Raid0, FailureIsFatal) {
  Rig rig(RaidLevel::kRaid0, 4);
  rig.raid->write(0, 0, 1, {});
  rig.disks[0]->fail();
  EXPECT_TRUE(rig.raid->failed());
  std::vector<u64> out(1);
  EXPECT_EQ(rig.raid->read(0, 0, 1, out).error, ErrorCode::kDeviceFailed);
}

// A write that covers a block with no live copy must fail, not ack: the
// block could never be read back. RAID-0 loses member 0; RAID-1 loses both
// members of pair 0. Both hold lba 0..3 (chunk 4); lba 4..7 stays placeable.
class RaidUnplacedWrite : public ::testing::TestWithParam<RaidLevel> {};

TEST_P(RaidUnplacedWrite, FailsInsteadOfAcking) {
  Rig rig(GetParam(), 4);
  rig.disks[0]->fail();
  if (GetParam() == RaidLevel::kRaid1) rig.disks[1]->fail();
  std::vector<u64> tags(8, 7);
  EXPECT_EQ(rig.raid->write(0, 0, 8, tags).error, ErrorCode::kDeviceFailed);
  std::vector<u64> out(8);
  EXPECT_EQ(rig.raid->read(0, 0, 8, out).error, ErrorCode::kDeviceFailed);
  EXPECT_TRUE(rig.raid->write(0, 4, 4, std::span(tags).first(4)).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Levels, RaidUnplacedWrite,
    ::testing::Values(RaidLevel::kRaid0, RaidLevel::kRaid1),
    [](const auto& info) {
      return std::string(to_string(info.param)).substr(5);
    });

TEST(Raid5, WritesContinueDegraded) {
  Rig rig(RaidLevel::kRaid5, 4);
  rig.disks[2]->fail();
  std::vector<u64> tags(4, 5);
  ASSERT_TRUE(rig.raid->write(0, 0, 4, tags).ok());
  std::vector<u64> out(4);
  ASSERT_TRUE(rig.raid->read(0, 0, 4, out).ok());
  for (u64 t : out) EXPECT_EQ(t, 5u);
}

// Degraded writes with multi-block chunks: the write path must keep parity
// consistent while one member is down, across runs that straddle chunk and
// stripe boundaries, for both the dedicated-parity and rotated layouts.
class RaidDegradedWrites : public ::testing::TestWithParam<RaidLevel> {};

TEST_P(RaidDegradedWrites, MultiBlockChunkWritesReadBackDegraded) {
  Rig rig(GetParam(), 4);  // chunk_blocks = 4 > 1, stripe = 12 data blocks
  common::Xoshiro256 rng(21);
  std::vector<u64> model(rig.raid->capacity_blocks(), 0);
  for (int op = 0; op < 150; ++op) {
    const u32 n = static_cast<u32>(rng.range(1, 20));
    const u64 lba = rng.below(rig.raid->capacity_blocks() - n);
    std::vector<u64> tags(n);
    for (u32 i = 0; i < n; ++i) {
      tags[i] = rng.next() | 1;
      model[lba + i] = tags[i];
    }
    ASSERT_TRUE(rig.raid->write(0, lba, n, tags).ok());
  }
  rig.disks[2]->fail();
  EXPECT_FALSE(rig.raid->failed());
  for (int op = 0; op < 150; ++op) {
    // Lengths up to 20 blocks cross chunk (4) and stripe (12) boundaries,
    // exercising RMW, reconstruct and full-stripe paths while degraded.
    const u32 n = static_cast<u32>(rng.range(1, 20));
    const u64 lba = rng.below(rig.raid->capacity_blocks() - n);
    std::vector<u64> tags(n);
    for (u32 i = 0; i < n; ++i) {
      tags[i] = rng.next() | 1;
      model[lba + i] = tags[i];
    }
    ASSERT_TRUE(rig.raid->write(0, lba, n, tags).ok()) << "op " << op;
  }
  for (u64 lba = 0; lba < rig.raid->capacity_blocks(); ++lba) {
    std::vector<u64> out(1, 0);
    ASSERT_TRUE(rig.raid->read(0, lba, 1, out).ok()) << lba;
    ASSERT_EQ(out[0], model[lba]) << lba;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, RaidDegradedWrites,
                         ::testing::Values(RaidLevel::kRaid4,
                                           RaidLevel::kRaid5),
                         [](const auto& info) {
                           return std::string(to_string(info.param)).substr(5);
                         });

// A double fault exceeds every single-redundancy level's tolerance. The
// contract is an explicit error, never a fabricated tag: a read that claims
// success must return the true value; reads needing both lost members fail.
class RaidDoubleFault : public ::testing::TestWithParam<RaidLevel> {};

TEST_P(RaidDoubleFault, ReadsErrorNotGarbage) {
  const RaidLevel level = GetParam();
  Rig rig(level, 4, 4, 512);
  common::Xoshiro256 rng(33);
  std::vector<u64> model(rig.raid->capacity_blocks(), 0);
  for (u64 lba = 0; lba < rig.raid->capacity_blocks(); ++lba) {
    std::vector<u64> tag = {rng.next() | 1};
    model[lba] = tag[0];
    ASSERT_TRUE(rig.raid->write(0, lba, 1, tag).ok());
  }
  // RAID-1 pairs are (dev, dev^1): kill both members of pair 0. Parity
  // levels lose any two members.
  rig.disks[0]->fail();
  rig.disks[1]->fail();
  u64 errors = 0;
  for (u64 lba = 0; lba < rig.raid->capacity_blocks(); ++lba) {
    constexpr u64 kSentinel = 0xDEADBEEFDEADBEEFull;
    std::vector<u64> out(1, kSentinel);
    const auto r = rig.raid->read(0, lba, 1, out);
    if (r.ok()) {
      ASSERT_EQ(out[0], model[lba]) << "garbage served at lba " << lba;
    } else {
      ++errors;
    }
  }
  // RAID-1 loses exactly the half of the address space mapped to pair 0;
  // parity levels lose every data block living on the two dead members
  // (about 2/3 of them) — reconstruction hits the second failure. Blocks on
  // survivors still read directly; the contract is they stay correct.
  EXPECT_GT(errors, 0u);
  if (level == RaidLevel::kRaid1) {
    EXPECT_EQ(errors, rig.raid->capacity_blocks() / 2);
  } else {
    EXPECT_GE(errors, rig.raid->capacity_blocks() / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, RaidDoubleFault,
                         ::testing::Values(RaidLevel::kRaid1, RaidLevel::kRaid4,
                                           RaidLevel::kRaid5),
                         [](const auto& info) {
                           return std::string(to_string(info.param)).substr(5);
                         });

// A parity-level write must not acknowledge a block that has no live copy.
// With two members down, a covered cell on a dead member could live only in
// parity, and the second failure leaves that parity unsolvable. The write
// must fail, and the stripe's old contents must survive it.
class RaidDoubleFaultWrite : public ::testing::TestWithParam<RaidLevel> {};

TEST_P(RaidDoubleFaultWrite, FailsAndKeepsOldValue) {
  struct Case {
    size_t dead_a, dead_b;  // failed members
    u64 lba;                // single-block write target on dead_a
    size_t healed;          // member brought back before the read-back
  };
  // Chunk 4, stripe 0: lba 0..3 on disk 0, lba 4..7 on disk 1, parity on
  // disk 3. The second case loses data and parity together.
  for (const Case c : {Case{0, 1, 4, 0}, Case{0, 3, 0, 3}}) {
    Rig rig(GetParam(), 4);
    std::vector<u64> fives(12, 5);
    ASSERT_TRUE(rig.raid->write(0, 0, 12, fives).ok());
    rig.disks[c.dead_a]->fail();
    rig.disks[c.dead_b]->fail();
    std::vector<u64> tag = {77};
    EXPECT_EQ(rig.raid->write(0, c.lba, 1, tag).error,
              ErrorCode::kDeviceFailed)
        << "lba " << c.lba;
    rig.disks[c.healed]->heal();
    std::vector<u64> out(1, 0);
    ASSERT_TRUE(rig.raid->read(0, c.lba, 1, out).ok()) << "lba " << c.lba;
    EXPECT_EQ(out[0], 5u) << "lba " << c.lba;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Levels, RaidDoubleFaultWrite,
    ::testing::Values(RaidLevel::kRaid4, RaidLevel::kRaid5),
    [](const auto& info) {
      return std::string(to_string(info.param)).substr(5);
    });

TEST(Raid1, ReadsBalanceAcrossMirrors) {
  Rig rig(RaidLevel::kRaid1, 4);
  rig.raid->write(0, 0, 1, {});
  for (int i = 0; i < 100; ++i) rig.raid->read(0, 0, 1, {});
  // Both mirrors of pair 0 should have served reads.
  EXPECT_GT(rig.disks[0]->stats().read_ops, 20u);
  EXPECT_GT(rig.disks[1]->stats().read_ops, 20u);
}

TEST(Raid, TrimFullStripesReachesParity) {
  Rig rig(RaidLevel::kRaid5, 4);
  std::vector<u64> tags(12, 9);
  rig.raid->write(0, 0, 12, tags);
  ASSERT_TRUE(rig.raid->trim(0, 0, 12).ok());
  u64 trimmed = 0;
  for (auto& d : rig.disks) trimmed += d->stats().trim_blocks;
  EXPECT_EQ(trimmed, 16u);  // 12 data + 4 parity blocks
}

TEST(Raid, PayloadWithinChunkRoundTrips) {
  Rig rig(RaidLevel::kRaid5, 8);
  auto p = std::make_shared<std::vector<u8>>(std::vector<u8>{1, 2, 3});
  ASSERT_TRUE(rig.raid->write_payload(0, 8, p).ok());
  auto r = rig.raid->read_payload(0, 8, nullptr);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r.value(), (std::vector<u8>{1, 2, 3}));
}

// A payload lands once per copy: one member write on RAID-0, one per mirror
// on RAID-1, and on RAID-5 the data block plus its parity.
TEST(Raid, PayloadWritesEachCopyOnce) {
  const std::pair<RaidLevel, u64> cases[] = {
      {RaidLevel::kRaid0, 1}, {RaidLevel::kRaid1, 2}, {RaidLevel::kRaid5, 2}};
  for (const auto& [level, copies] : cases) {
    Rig rig(level, 1);
    auto p = std::make_shared<std::vector<u8>>(8, u8{7});
    ASSERT_TRUE(rig.raid->write_payload(0, 5, p).ok());
    u64 write_ops = 0;
    u64 write_blocks = 0;
    for (const auto& d : rig.disks) {
      write_ops += d->stats().write_ops;
      write_blocks += d->stats().write_blocks;
    }
    EXPECT_EQ(write_ops, copies) << to_string(level);
    EXPECT_EQ(write_blocks, copies) << to_string(level);
    EXPECT_EQ(rig.raid->stats().write_ops, copies) << to_string(level);
    EXPECT_TRUE(rig.raid->verify_parity(5)) << to_string(level);
    const auto back = rig.raid->read_payload(0, 5, nullptr);
    ASSERT_TRUE(back.is_ok()) << to_string(level);
    EXPECT_EQ(*back.value(), *p) << to_string(level);
  }
}

// With a member down, every acknowledged payload reads back, and one whose
// only copy would land on the dead member fails without a member write.
TEST(Raid, PayloadWriteFailsWithoutLiveCopy) {
  for (const RaidLevel level : {RaidLevel::kRaid0, RaidLevel::kRaid1,
                                RaidLevel::kRaid4, RaidLevel::kRaid5}) {
    Rig rig(level, 1);
    rig.disks[1]->fail();
    u64 refused = 0;
    for (u64 lba = 0; lba < 12; ++lba) {
      u64 writes_before = 0;
      for (const auto& d : rig.disks) writes_before += d->stats().write_ops;
      auto p = std::make_shared<std::vector<u8>>(8, static_cast<u8>(lba));
      const IoResult w = rig.raid->write_payload(0, lba, p);
      u64 writes_after = 0;
      for (const auto& d : rig.disks) writes_after += d->stats().write_ops;
      if (!w.ok()) {
        EXPECT_EQ(w.error, ErrorCode::kDeviceFailed) << to_string(level);
        EXPECT_EQ(writes_after, writes_before) << to_string(level);
        refused++;
        continue;
      }
      const auto back = rig.raid->read_payload(0, lba, nullptr);
      ASSERT_TRUE(back.is_ok()) << to_string(level) << " lba " << lba;
      EXPECT_EQ(*back.value(), *p) << to_string(level) << " lba " << lba;
    }
    // RAID-1 keeps the mirror copy; the other levels lose member 1's cells.
    EXPECT_EQ(refused > 0, level != RaidLevel::kRaid1) << to_string(level);
  }
}

TEST(Raid, TimingOverlapsAcrossDevices) {
  // A full-stripe write should take about one device-op time, not four.
  Rig rig(RaidLevel::kRaid0, 4);
  std::vector<u64> tags(4, 1);
  const auto r = rig.raid->write(0, 0, 4, tags);
  EXPECT_LT(r.done, 2 * (10 * sim::kUs + 5 * sim::kUs));
}

// --- golden member I/O ------------------------------------------------------

struct GoldenIo {
  u32 member_crc = 0;  // every member call, in arrival order
  u32 state_crc = 0;   // RAID results and read tags, RaidStats, DeviceStats
  RaidStats rs;
};

// A seeded random script of overlapping reads, writes (up to two stripes
// and a bit), trims (half of them stripe-aligned), payload round trips and
// flushes on a 4-member array, with a window of latent sector errors on
// member 2. `degraded` fails member 1 first.
GoldenIo run_member_io_script(RaidLevel level, u32 chunk, bool degraded) {
  GoldenIo g;
  MemDiskConfig cfg;
  cfg.capacity_blocks = 256;
  cfg.op_latency = 10 * sim::kUs;
  std::vector<std::unique_ptr<RecordingDisk>> disks;
  std::vector<blockdev::BlockDevice*> members;
  for (u64 i = 0; i < 4; ++i) {
    disks.push_back(std::make_unique<RecordingDisk>(i, cfg, &g.member_crc));
    members.push_back(disks.back().get());
  }
  RaidDevice raid(RaidConfig{level, chunk}, members);
  if (degraded) disks[1]->fail();
  const u64 cap = raid.capacity_blocks();
  const u64 stripe = data_cols(level, 4) * chunk;
  auto fold = [&g](u64 v) { g.state_crc = common::crc32c_of(v, g.state_crc); };
  auto fold_result = [&](IoResult r) {
    fold(static_cast<u64>(r.done));
    fold(static_cast<u64>(r.error));
  };
  common::Xoshiro256 rng(100 * static_cast<u64>(level) + chunk);
  SimTime now = 0;
  for (int op = 0; op < 800; ++op) {
    if (op == 250) disks[2]->inject_media_errors(32, 8);
    if (op == 500) disks[2]->clear_media_errors();
    now += static_cast<SimTime>(rng.below(40)) * sim::kUs;
    const u64 dice = rng.below(100);
    u32 n = 1 + static_cast<u32>(rng.below(7 * chunk));
    u64 lba = rng.below(cap - n + 1);
    if (dice < 45) {
      std::vector<u64> tags(n);
      for (u64& t : tags) t = rng.next();
      fold_result(raid.write(now, lba, n, tags));
    } else if (dice < 85) {
      std::vector<u64> out(n, 0);
      const IoResult r = raid.read(now, lba, n, out);
      fold_result(r);
      if (r.ok())
        for (u64 t : out) fold(t);
    } else if (dice < 94) {
      if (dice % 2 == 0) {
        lba -= lba % stripe;
        n = static_cast<u32>(std::min<u64>(stripe * (1 + n % 2), cap - lba));
      }
      fold_result(raid.trim(now, lba, n));
    } else if (dice < 98) {
      lba -= lba % chunk;  // a payload lands within one chunk
      const auto bytes = static_cast<size_t>(rng.range(1, chunk * kBlockSize));
      auto p = std::make_shared<std::vector<u8>>(bytes, static_cast<u8>(op));
      fold_result(raid.write_payload(now, lba, p));
      SimTime t = now;
      const auto back = raid.read_payload(now, lba, &t);
      fold(static_cast<u64>(t));
      fold(back.is_ok() && back.value() ? back.value()->size() : 0);
    } else {
      fold_result(raid.flush(now));
    }
  }
  g.rs = raid.raid_stats();
  for (u64 v : {g.rs.full_stripe_writes, g.rs.rmw_writes,
                g.rs.reconstruct_writes, g.rs.degraded_reads})
    fold(v);
  g.state_crc = fold_stats(raid.stats(), g.state_crc);
  for (const auto& d : disks) g.state_crc = fold_stats(d->stats(), g.state_crc);
  return g;
}

// Pins which member commands every RAID level issues, in what order and
// when, for each chunk size, healthy and with member 1 failed: any drift in
// run merging, parity strategy or degraded handling moves a CRC. (Re-pinned
// when write_payload began writing each payload copy once, and its degraded
// RAID-4/5 rows again when a payload bound for the dead member began to
// fail instead of being acknowledged.)
TEST(Raid, GoldenMemberIo) {
  struct Pin {
    RaidLevel level;
    u32 chunk;
    bool degraded;
    u32 member_crc;
    u32 state_crc;
  };
  const Pin pins[] = {
      {RaidLevel::kRaid0, 1, false, 0x982a65e3, 0x3f5cceb3},
      {RaidLevel::kRaid0, 1, true, 0x5306467e, 0x2cb16ea2},
      {RaidLevel::kRaid0, 4, false, 0x04b85482, 0x331364c5},
      {RaidLevel::kRaid0, 4, true, 0xbfd4dfe1, 0x12d2f29a},
      {RaidLevel::kRaid0, 16, false, 0x5d32acb5, 0x708b0b2d},
      {RaidLevel::kRaid0, 16, true, 0x27387566, 0x193efbab},
      {RaidLevel::kRaid1, 1, false, 0x5f009526, 0xbb205fe5},
      {RaidLevel::kRaid1, 1, true, 0xbad9b5a2, 0xc3994c7b},
      {RaidLevel::kRaid1, 4, false, 0x51feeb3d, 0x8fa9e45a},
      {RaidLevel::kRaid1, 4, true, 0xb422c702, 0x7332883c},
      {RaidLevel::kRaid1, 16, false, 0x6346ce11, 0x88eae0a2},
      {RaidLevel::kRaid1, 16, true, 0x15a47f98, 0x8c62c2d8},
      {RaidLevel::kRaid4, 1, false, 0x439122f1, 0xe9ed1095},
      {RaidLevel::kRaid4, 1, true, 0x662546d8, 0xacc83e42},
      {RaidLevel::kRaid4, 4, false, 0xcbf4015d, 0xa9c54c30},
      {RaidLevel::kRaid4, 4, true, 0x0bbdd554, 0x0a30594a},
      {RaidLevel::kRaid4, 16, false, 0x356de24b, 0x51989051},
      {RaidLevel::kRaid4, 16, true, 0x73a4aa4b, 0x1f228a3f},
      {RaidLevel::kRaid5, 1, false, 0x705adfde, 0xd86b8887},
      {RaidLevel::kRaid5, 1, true, 0x123b9dd7, 0x7ddf0f79},
      {RaidLevel::kRaid5, 4, false, 0x43506b22, 0x3629ce83},
      {RaidLevel::kRaid5, 4, true, 0xfb611e69, 0x56333200},
      {RaidLevel::kRaid5, 16, false, 0x7ad31344, 0xed8fefc2},
      {RaidLevel::kRaid5, 16, true, 0x23a0fb79, 0x86897a87},
  };
  for (const Pin& p : pins) {
    const GoldenIo g = run_member_io_script(p.level, p.chunk, p.degraded);
    std::string ctx = to_string(p.level);
    ctx += " chunk " + std::to_string(p.chunk);
    ctx += p.degraded ? " degraded" : " healthy";
    EXPECT_EQ(g.member_crc, p.member_crc) << ctx;
    EXPECT_EQ(g.state_crc, p.state_crc) << ctx;
    // The script reaches every parity strategy the pins are meant to cover.
    if (p.level == RaidLevel::kRaid4 || p.level == RaidLevel::kRaid5) {
      EXPECT_GT(g.rs.full_stripe_writes, 0u) << ctx;
      EXPECT_GT(g.rs.reconstruct_writes, 0u) << ctx;
      if (p.degraded) {
        EXPECT_GT(g.rs.degraded_reads, 0u) << ctx;
      } else {
        EXPECT_GT(g.rs.rmw_writes, 0u) << ctx;
      }
    }
  }
}

// --- background rebuild engine (raid/rebuild.hpp) ---------------------------

constexpr u64 kDevBlocks = 512;

// Fill a rig's full address space with distinct tags; returns the model.
std::vector<u64> fill_all(Rig& rig, u64 seed) {
  common::Xoshiro256 rng(seed);
  std::vector<u64> model(rig.raid->capacity_blocks(), 0);
  for (u64 lba = 0; lba < model.size(); ++lba) {
    std::vector<u64> tag = {rng.next() | 1};
    model[lba] = tag[0];
    EXPECT_TRUE(rig.raid->write(0, lba, 1, tag).ok());
  }
  return model;
}

TEST(Rebuild, MirrorSweepRestoresContent) {
  Rig rig(RaidLevel::kRaid1, 1, 4, kDevBlocks);
  const auto model = fill_all(rig, 101);

  RebuildConfig cfg;
  cfg.mbps = 1e6;  // effectively unthrottled: one pump finishes the sweep
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid1, kDevBlocks));

  rig.disks[1]->fail();
  mgr.on_device_failed(1, 0);
  EXPECT_FALSE(mgr.rebuilding());

  rig.disks[1]->replace_media();  // blank swap-in
  mgr.on_device_replaced(1, sim::kMs);
  EXPECT_TRUE(mgr.rebuilding());
  EXPECT_TRUE(mgr.covers(1, 0));
  EXPECT_EQ(mgr.blocks_at_risk(), kDevBlocks);

  mgr.pump(sim::kSec);
  EXPECT_FALSE(mgr.rebuilding());
  EXPECT_FALSE(mgr.covers(1, 0));

  const RebuildOutcome o = mgr.outcome();
  EXPECT_EQ(o.rebuilds_started, 1u);
  EXPECT_EQ(o.rebuilds_completed, 1u);
  EXPECT_EQ(o.rebuilds_aborted, 0u);
  EXPECT_EQ(o.spares_used, 1u);
  EXPECT_EQ(o.blocks_copied, kDevBlocks);
  EXPECT_EQ(o.blocks_unrecovered, 0u);
  EXPECT_EQ(o.write_bytes, kDevBlocks * kBlockSize);
  EXPECT_EQ(o.blocks_at_risk_peak, kDevBlocks);
  EXPECT_GT(o.degraded_ns, 0);

  for (u64 lba = 0; lba < rig.raid->capacity_blocks(); ++lba) {
    std::vector<u64> out(1, 0);
    ASSERT_TRUE(rig.raid->read(0, lba, 1, out).ok());
    ASSERT_EQ(out[0], model[lba]) << lba;
  }
}

TEST(Rebuild, ParitySweepRestoresContent) {
  Rig rig(RaidLevel::kRaid5, 4, 4, kDevBlocks);
  const auto model = fill_all(rig, 202);

  RebuildConfig cfg;
  cfg.mbps = 1e6;
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid5, kDevBlocks));

  rig.disks[2]->fail();
  mgr.on_device_failed(2, 0);
  rig.disks[2]->replace_media();
  mgr.on_device_replaced(2, sim::kMs);
  mgr.pump(sim::kSec);
  EXPECT_FALSE(mgr.rebuilding());

  const RebuildOutcome o = mgr.outcome();
  EXPECT_EQ(o.rebuilds_completed, 1u);
  EXPECT_EQ(o.blocks_copied, kDevBlocks);
  // XOR decode reads every survivor: 3 reads per rebuilt block.
  EXPECT_EQ(o.read_bytes, 3 * kDevBlocks * kBlockSize);

  for (u64 lba = 0; lba < rig.raid->capacity_blocks(); ++lba) {
    std::vector<u64> out(1, 0);
    ASSERT_TRUE(rig.raid->read(0, lba, 1, out).ok());
    ASSERT_EQ(out[0], model[lba]) << lba;
  }
}

TEST(Rebuild, RateLimitPacesCopy) {
  Rig rig(RaidLevel::kRaid5, 4, 4, kDevBlocks);
  fill_all(rig, 303);

  RebuildConfig cfg;
  cfg.mbps = 1.0;  // 1 MB/s = ~244 blocks/s of 4 KiB
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid5, kDevBlocks));

  rig.disks[1]->fail();
  mgr.on_device_failed(1, 0);
  rig.disks[1]->replace_media();
  mgr.on_device_replaced(1, 0);

  // 100 ms at 1 MB/s is a 100 KB budget: ~24 blocks, nowhere near done.
  mgr.pump(100 * sim::kMs);
  EXPECT_TRUE(mgr.rebuilding());
  const u64 early = mgr.outcome().blocks_copied;
  EXPECT_GT(early, 0u);
  EXPECT_LT(early, 100u);
  // Double-pumping the same instant must not copy more (idempotence).
  mgr.pump(100 * sim::kMs);
  EXPECT_EQ(mgr.outcome().blocks_copied, early);
  // Enough virtual time finishes the sweep.
  mgr.pump(10 * sim::kSec);
  EXPECT_FALSE(mgr.rebuilding());
  EXPECT_EQ(mgr.outcome().blocks_copied, kDevBlocks);
}

TEST(Rebuild, SecondFailureAbortsAndMasksDead) {
  Rig rig(RaidLevel::kRaid5, 4, 4, kDevBlocks);
  fill_all(rig, 404);

  RebuildConfig cfg;
  cfg.mbps = 1.0;
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid5, kDevBlocks));
  u64 lost_blocks = 0;
  size_t lost_dev = SIZE_MAX;
  mgr.set_abort_callback(
      [&](size_t dev, const std::vector<RebuildExtent>& lost, sim::SimTime) {
        lost_dev = dev;
        for (const auto& ex : lost) lost_blocks += ex.count;
      });

  rig.disks[1]->fail();
  mgr.on_device_failed(1, 0);
  rig.disks[1]->replace_media();
  mgr.on_device_replaced(1, 0);
  mgr.pump(100 * sim::kMs);  // partial copy
  const u64 copied = mgr.outcome().blocks_copied;
  ASSERT_TRUE(mgr.rebuilding());

  // Second failure: every still-pending parity extent needs disk 3.
  rig.disks[3]->fail();
  mgr.on_device_failed(3, sim::kSec);

  EXPECT_EQ(lost_dev, 1u);
  EXPECT_EQ(lost_blocks, kDevBlocks - copied);
  const RebuildOutcome o = mgr.outcome();
  EXPECT_EQ(o.rebuilds_aborted, 1u);
  EXPECT_EQ(o.rebuilds_completed, 0u);
  EXPECT_EQ(o.blocks_unrecovered, kDevBlocks - copied);
  // Copied blocks are served; lost blocks stay masked forever — a blank
  // device must never satisfy a read with fabricated zero tags.
  EXPECT_FALSE(mgr.covers(1, 0));
  EXPECT_TRUE(mgr.covers(1, kDevBlocks - 1));
  // Further pumping is a no-op: nothing is left to rebuild.
  mgr.pump(10 * sim::kSec);
  EXPECT_EQ(mgr.outcome().blocks_copied, copied);
}

TEST(Rebuild, SurvivorReadErrorLosesPendingRest) {
  Rig rig(RaidLevel::kRaid5, 4, 4, kDevBlocks);
  fill_all(rig, 606);

  RebuildConfig cfg;
  cfg.mbps = 1e6;
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid5, kDevBlocks));
  fault::FaultLedger ledger;
  ledger.record_injected(fault::FaultKind::kFailStop, 1);
  mgr.set_fault_ledger(&ledger);
  size_t lost_dev = SIZE_MAX;
  std::vector<RebuildExtent> lost;
  mgr.set_abort_callback(
      [&](size_t dev, const std::vector<RebuildExtent>& ex, sim::SimTime) {
        lost_dev = dev;
        lost = ex;
      });

  rig.disks[1]->fail();
  mgr.on_device_failed(1, 0);
  rig.disks[1]->replace_media();
  mgr.on_device_replaced(1, sim::kMs);
  // Fresh content over [100, 150) needs no decode; a latent sector error on
  // survivor 2 fails the first batch's reads.
  mgr.discard(100, 50);
  rig.disks[2]->inject_media_errors(10, 1);
  mgr.pump(sim::kSec);
  EXPECT_FALSE(mgr.rebuilding());

  // Exactly the still-pending rest of the sweep is lost, and stays masked.
  ASSERT_EQ(lost_dev, 1u);
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost[0].block, 0u);
  EXPECT_EQ(lost[0].count, 100u);
  EXPECT_EQ(lost[1].block, 150u);
  EXPECT_EQ(lost[1].count, kDevBlocks - 150);
  for (u64 b : {u64{0}, u64{10}, u64{99}, u64{150}, kDevBlocks - 1})
    EXPECT_TRUE(mgr.covers(1, b)) << b;
  EXPECT_FALSE(mgr.covers(1, 120));

  const RebuildOutcome o = mgr.outcome();
  EXPECT_EQ(o.blocks_copied, 0u);
  EXPECT_EQ(o.blocks_unrecovered, kDevBlocks - 50);
  EXPECT_EQ(o.rebuilds_aborted, 1u);
  EXPECT_EQ(o.rebuilds_completed, 0u);
  EXPECT_EQ(ledger.repaired_by_rebuild(), 0u);
}

TEST(Rebuild, DiscardSkipsFreshlyWrittenBlocks) {
  Rig rig(RaidLevel::kRaid5, 4, 4, kDevBlocks);
  fill_all(rig, 505);

  RebuildConfig cfg;
  cfg.mbps = 1e6;
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid5, kDevBlocks));

  rig.disks[0]->fail();
  mgr.on_device_failed(0, 0);
  rig.disks[0]->replace_media();
  mgr.on_device_replaced(0, 0);

  // Fresh content lands on the first half of the device (a seal/trim path
  // would report it via discard): rebuild must not overwrite it with a
  // stale decode, so only the second half is copied.
  mgr.discard(0, kDevBlocks / 2);
  EXPECT_FALSE(mgr.covers(0, 0));

  mgr.pump(sim::kSec);
  EXPECT_FALSE(mgr.rebuilding());
  const RebuildOutcome o = mgr.outcome();
  EXPECT_EQ(o.blocks_copied, kDevBlocks / 2);
  EXPECT_EQ(o.blocks_skipped, kDevBlocks / 2);
  EXPECT_EQ(o.rebuilds_completed, 1u);
}

TEST(Rebuild, SpareDeficitIsReported) {
  Rig rig(RaidLevel::kRaid1, 1, 4, kDevBlocks);
  RebuildConfig cfg;
  cfg.spares = 0;  // empty pool: a replace still proceeds but is flagged
  std::vector<blockdev::BlockDevice*> members;
  for (auto& d : rig.disks) members.push_back(d.get());
  RebuildManager mgr(cfg, members);
  mgr.set_extent_source(full_sweep_source(RaidLevel::kRaid1, kDevBlocks));

  rig.disks[1]->fail();
  mgr.on_device_failed(1, 0);
  rig.disks[1]->replace_media();
  mgr.on_device_replaced(1, 0);
  mgr.pump(sim::kSec);

  const RebuildOutcome o = mgr.outcome();
  EXPECT_EQ(o.spares_total, 0u);
  EXPECT_EQ(o.spares_used, 1u);  // used > total: deficit visible in JSON
}

}  // namespace
}  // namespace srcache::raid
