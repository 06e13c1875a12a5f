#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <string>

#include "block/mem_disk.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "flash/sim_ssd.hpp"
#include "hdd/iscsi_target.hpp"
#include "hdd/sim_hdd.hpp"
#include "obs/metrics.hpp"
#include "recording_disk.hpp"

namespace srcache::blockdev {
namespace {

MemDiskConfig small_cfg() {
  MemDiskConfig cfg;
  cfg.capacity_blocks = 1024;
  cfg.op_latency = 10 * sim::kUs;
  cfg.bandwidth_mbps = 1000.0;
  cfg.flush_latency = 100 * sim::kUs;
  return cfg;
}

TEST(MemDisk, Capacity) {
  MemDisk d(small_cfg());
  EXPECT_EQ(d.capacity_blocks(), 1024u);
}

TEST(MemDisk, RejectsZeroCapacity) {
  MemDiskConfig cfg = small_cfg();
  cfg.capacity_blocks = 0;
  EXPECT_THROW(MemDisk{cfg}, std::invalid_argument);
}

TEST(MemDisk, WriteThenReadReturnsTags) {
  MemDisk d(small_cfg());
  const std::vector<u64> tags = {11, 22, 33};
  ASSERT_TRUE(d.write(0, 5, 3, tags).ok());
  std::vector<u64> out(3, 0);
  ASSERT_TRUE(d.read(0, 5, 3, out).ok());
  EXPECT_EQ(out, tags);
}

TEST(MemDisk, UnwrittenBlocksReadZero) {
  MemDisk d(small_cfg());
  std::vector<u64> out(2, 99);
  ASSERT_TRUE(d.read(0, 100, 2, out).ok());
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 0u);
}

TEST(MemDisk, OutOfBoundsRejected) {
  MemDisk d(small_cfg());
  EXPECT_EQ(d.read(0, 1023, 2, {}).error, ErrorCode::kInvalidArgument);
  EXPECT_EQ(d.write(0, 1024, 1, {}).error, ErrorCode::kInvalidArgument);
}

TEST(MemDisk, TimingIncludesLatencyAndTransfer) {
  MemDisk d(small_cfg());
  // 1 block = 4096 B at 1000 MB/s = 4.096 us, + 10 us latency.
  const auto r = d.write(0, 0, 1, {});
  EXPECT_EQ(r.done, 10 * sim::kUs + 4096);
}

TEST(MemDisk, OpsQueueOnDevice) {
  MemDisk d(small_cfg());
  const auto r1 = d.write(0, 0, 1, {});
  const auto r2 = d.write(0, 1, 1, {});
  EXPECT_GT(r2.done, r1.done);
}

TEST(MemDisk, PayloadRoundTrip) {
  MemDisk d(small_cfg());
  auto p = std::make_shared<std::vector<u8>>(std::vector<u8>{1, 2, 3});
  ASSERT_TRUE(d.write_payload(0, 7, p).ok());
  auto r = d.read_payload(0, 7, nullptr);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r.value(), (std::vector<u8>{1, 2, 3}));
}

TEST(MemDisk, PayloadOverwrittenByPlainWrite) {
  MemDisk d(small_cfg());
  d.write_payload(0, 7, std::make_shared<std::vector<u8>>(std::vector<u8>{1}));
  d.write(0, 7, 1, {});
  EXPECT_EQ(d.read_payload(0, 7, nullptr).code(), ErrorCode::kNotFound);
}

TEST(MemDisk, PayloadSpansBlocks) {
  MemDisk d(small_cfg());
  auto big = std::make_shared<std::vector<u8>>(kBlockSize + 100, u8{7});
  ASSERT_TRUE(d.write_payload(0, 10, big).ok());
  ASSERT_TRUE(d.read_payload(0, 10, nullptr).is_ok());
  // The second spanned block has no payload anchor of its own.
  EXPECT_FALSE(d.read_payload(0, 11, nullptr).is_ok());
}

TEST(MemDisk, TrimDiscardsContent) {
  MemDisk d(small_cfg());
  const std::vector<u64> tags = {5};
  d.write(0, 3, 1, tags);
  ASSERT_TRUE(d.trim(0, 3, 1).ok());
  std::vector<u64> out(1, 77);
  d.read(0, 3, 1, out);
  EXPECT_EQ(out[0], 0u);
}

TEST(MemDisk, FailedDeviceRejectsEverything) {
  MemDisk d(small_cfg());
  d.fail();
  EXPECT_TRUE(d.failed());
  EXPECT_EQ(d.read(0, 0, 1, {}).error, ErrorCode::kDeviceFailed);
  EXPECT_EQ(d.write(0, 0, 1, {}).error, ErrorCode::kDeviceFailed);
  EXPECT_EQ(d.flush(0).error, ErrorCode::kDeviceFailed);
  EXPECT_EQ(d.trim(0, 0, 1).error, ErrorCode::kDeviceFailed);
  d.heal();
  EXPECT_TRUE(d.read(0, 0, 1, {}).ok());
}

TEST(MemDisk, CorruptFlipsTag) {
  MemDisk d(small_cfg());
  const std::vector<u64> tags = {0x1234};
  d.write(0, 9, 1, tags);
  d.corrupt(9);
  std::vector<u64> out(1);
  d.read(0, 9, 1, out);
  EXPECT_NE(out[0], 0x1234u);
}

// A store reads 0 for every block it holds no tag for, and a disabled one
// (a device that tracks no content) holds none, except for a block that
// corrupt() flipped: silent corruption shows on such devices too.
TEST(ContentStore, ReadsZeroUnlessTaggedOrCorrupted) {
  constexpr u64 kFlip = 0xDEADBEEFCAFEBABEull;
  for (const bool enabled : {false, true}) {
    SCOPED_TRACE(enabled);
    ContentStore store(enabled);
    std::vector<u64> out(6, 7);
    store.read(10, 4, out);
    EXPECT_EQ(out, (std::vector<u64>{0, 0, 0, 0, 7, 7}));
    store.write(10, 2, std::vector<u64>{5, 6});
    store.read(10, 4, out);
    if (enabled) {
      EXPECT_EQ(out, (std::vector<u64>{5, 6, 0, 0, 7, 7}));
    } else {
      EXPECT_EQ(out, (std::vector<u64>{0, 0, 0, 0, 7, 7}));
    }
    store.corrupt(12);
    store.read(10, 4, out);
    if (enabled) {
      EXPECT_EQ(out, (std::vector<u64>{5, 6, kFlip, 0, 7, 7}));
    } else {
      EXPECT_EQ(out, (std::vector<u64>{0, 0, kFlip, 0, 7, 7}));
    }
  }
}

// The same through a device that tracks no content.
TEST(MemDisk, CorruptShowsWithoutContentTracking) {
  MemDiskConfig cfg = small_cfg();
  cfg.track_content = false;
  MemDisk d(cfg);
  const std::vector<u64> tags = {0x1234, 0x5678};
  d.write(0, 9, 2, tags);
  std::vector<u64> out(2, 1);
  d.read(0, 9, 2, out);
  EXPECT_EQ(out, (std::vector<u64>{0, 0}));
  d.corrupt(10);
  d.read(0, 9, 2, out);
  EXPECT_EQ(out, (std::vector<u64>{0, 0xDEADBEEFCAFEBABEull}));
}

TEST(MemDisk, CorruptBreaksPayload) {
  MemDisk d(small_cfg());
  auto p = std::make_shared<std::vector<u8>>(std::vector<u8>{1, 2, 3, 4});
  d.write_payload(0, 4, p);
  d.corrupt(4);
  auto r = d.read_payload(0, 4, nullptr);
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(*r.value(), (std::vector<u8>{1, 2, 3, 4}));
}

TEST(MemDisk, StatsAccumulate) {
  MemDisk d(small_cfg());
  d.write(0, 0, 4, {});
  d.read(0, 0, 2, {});
  d.flush(0);
  d.trim(0, 0, 8);
  const DeviceStats& s = d.stats();
  EXPECT_EQ(s.write_ops, 1u);
  EXPECT_EQ(s.write_blocks, 4u);
  EXPECT_EQ(s.read_ops, 1u);
  EXPECT_EQ(s.read_blocks, 2u);
  EXPECT_EQ(s.flushes, 1u);
  EXPECT_EQ(s.trim_blocks, 8u);
}

TEST(DeviceStatsOps, Subtraction) {
  DeviceStats a{10, 100, 20, 200, 3, 1, 8};
  DeviceStats b{4, 40, 5, 50, 1, 0, 0};
  DeviceStats d = a;
  sub_counters(d, b, kDeviceStatsFields);
  EXPECT_EQ(d.read_ops, 6u);
  EXPECT_EQ(d.write_blocks, 150u);
  EXPECT_EQ(d.total_blocks(), 60u + 150u);
}

TEST(MakeTag, DistinctPerLbaAndVersion) {
  EXPECT_NE(make_tag(1, 1), make_tag(2, 1));
  EXPECT_NE(make_tag(1, 1), make_tag(1, 2));
}

// --- leaf devices: MemDisk, SimHdd and SimSsd keep one contract ------------

// A small SSD with the paper drive's timing and an 8 MiB write buffer.
flash::SsdSpec leaf_ssd_spec() {
  flash::SsdSpec s = flash::spec_840pro_128();
  s.capacity_bytes = 64 * MiB;
  s.controller_lanes = 2;
  s.units = 4;
  s.pages_per_block = 64;
  s.write_buffer_bytes = 8 * MiB;
  return s;
}

hdd::HddConfig leaf_hdd_config() {
  hdd::HddConfig cfg;
  cfg.capacity_bytes = 64 * MiB;
  return cfg;
}

template <class D>
std::unique_ptr<D> make_leaf();
template <>
std::unique_ptr<MemDisk> make_leaf() {
  return std::make_unique<MemDisk>(small_cfg());
}
template <>
std::unique_ptr<hdd::SimHdd> make_leaf() {
  return std::make_unique<hdd::SimHdd>(leaf_hdd_config());
}
template <>
std::unique_ptr<flash::SimSsd> make_leaf() {
  return std::make_unique<flash::SimSsd>(leaf_ssd_spec());
}

template <class D>
class LeafDevice : public ::testing::Test {};
using LeafTypes = ::testing::Types<MemDisk, hdd::SimHdd, flash::SimSsd>;
TYPED_TEST_SUITE(LeafDevice, LeafTypes);

bool same_stats(const DeviceStats& a, const DeviceStats& b) {
  for (const auto& f : kDeviceStatsFields)
    if (a.*f.counter != b.*f.counter) return false;
  return true;
}

// Out-of-range I/O is refused with kInvalidArgument before it touches the
// media or the counters, whichever leaf serves it.
TYPED_TEST(LeafDevice, OutOfRangeIoIsRejectedAndCountsNothing) {
  auto d = make_leaf<TypeParam>();
  const u64 cap = d->capacity_blocks();
  const std::vector<u64> tag = {0x77};
  ASSERT_TRUE(d->write(0, cap - 1, 1, tag).ok());
  const DeviceStats before = d->stats();

  SimTime done = 0;
  EXPECT_EQ(d->read_payload(0, cap, &done).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(d->trim(0, cap - 1, 2).error, ErrorCode::kInvalidArgument);
  EXPECT_EQ(d->trim(0, cap, 1).error, ErrorCode::kInvalidArgument);
  EXPECT_EQ(d->read(0, cap - 1, 2, {}).error, ErrorCode::kInvalidArgument);
  EXPECT_EQ(d->write(0, cap, 1, {}).error, ErrorCode::kInvalidArgument);
  EXPECT_TRUE(same_stats(d->stats(), before));

  // The refused trim left the last block's content in place.
  std::vector<u64> out(1, 0);
  ASSERT_TRUE(d->read(0, cap - 1, 1, out).ok());
  EXPECT_EQ(out[0], 0x77u);
}

// replace_media is a drive swap: the device comes back serviceable and
// blank, with no tags, payloads or latent errors of the old media.
TYPED_TEST(LeafDevice, ReplaceMediaComesBackBlank) {
  auto d = make_leaf<TypeParam>();
  const std::vector<u64> tags = {11, 22, 33};
  ASSERT_TRUE(d->write(0, 4, 3, tags).ok());
  ASSERT_TRUE(
      d->write_payload(0, 10, std::make_shared<std::vector<u8>>(8, u8{9}))
          .ok());
  d->inject_media_errors(20, 2);
  d->fail();
  d->replace_media();

  EXPECT_FALSE(d->failed());
  EXPECT_EQ(d->media_error_blocks(), 0u);
  std::vector<u64> out(3, 99);
  ASSERT_TRUE(d->read(0, 4, 3, out).ok());
  EXPECT_EQ(out, (std::vector<u64>{0, 0, 0}));
  EXPECT_EQ(d->read_payload(0, 10, nullptr).code(), ErrorCode::kNotFound);
  EXPECT_TRUE(d->read(0, 20, 2, {}).ok());
}

hdd::IscsiConfig leaf_iscsi_config() {
  hdd::IscsiConfig ic;
  ic.disk.capacity_bytes = 32 * MiB;
  ic.server_cache_bytes = 16 * MiB;
  ic.dirty_limit_bytes = 1 * MiB;
  return ic;
}

template <>
std::unique_ptr<hdd::IscsiTarget> make_leaf() {
  return std::make_unique<hdd::IscsiTarget>(leaf_iscsi_config());
}

// Every device SRC stores metadata payloads on, the primary included.
template <class D>
class PayloadDevice : public ::testing::Test {};
using PayloadTypes =
    ::testing::Types<MemDisk, hdd::SimHdd, flash::SimSsd, hdd::IscsiTarget>;
TYPED_TEST_SUITE(PayloadDevice, PayloadTypes);

// A payload write and a payload read each count as one command of one
// block, whichever device serves them.
TYPED_TEST(PayloadDevice, PayloadWriteAndReadCountOneOpEach) {
  auto d = make_leaf<TypeParam>();
  ASSERT_TRUE(
      d->write_payload(0, 10, std::make_shared<std::vector<u8>>(8, u8{9}))
          .ok());
  SimTime done = 0;
  const auto p = d->read_payload(0, 10, &done);
  ASSERT_TRUE(p.is_ok());
  EXPECT_EQ(p.value()->size(), 8u);
  EXPECT_GT(done, 0);
  const DeviceStats& s = d->stats();
  EXPECT_EQ(s.write_ops, 1u);
  EXPECT_EQ(s.write_blocks, 1u);
  EXPECT_EQ(s.read_ops, 1u);
  EXPECT_EQ(s.read_blocks, 1u);
}

struct LeafRun {
  u32 crc = 0;
  u64 errors[8] = {};  // results seen per ErrorCode
  double peak_gauge = 0;
};

// A seeded, in-range script of every BlockDevice operation: reads, writes
// (one in 25 longer than SimSsd's 8 MiB write buffer and the iSCSI dirty
// limit), payload round trips, flushes, trims, fail/heal, corruption,
// latent errors and (where `swap`) drive swaps. Folds every result, tag and
// payload size into a CRC-32C, with `gauge` (a write-buffer level) folded
// after each call and the device's stats at the end.
LeafRun run_leaf_io_script(BlockDevice& dev, bool swap,
                           const std::function<double()>& gauge) {
  LeafRun run;
  auto fold = [&run](u64 v) { run.crc = common::crc32c_of(v, run.crc); };
  auto fold_result = [&](IoResult r) {
    fold(static_cast<u64>(r.done));
    fold(static_cast<u64>(r.error));
    run.errors[static_cast<size_t>(r.error)]++;
  };
  const u64 cap = dev.capacity_blocks();
  const u64 hot = std::min<u64>(cap, 512);
  common::Xoshiro256 rng(2015);
  SimTime now = 0;
  int heal_at = -1;
  for (int op = 0; op < 600; ++op) {
    if (op == heal_at) dev.heal();
    now += static_cast<SimTime>(rng.below(200)) * sim::kUs;
    const u64 dice = rng.below(100);
    if (dice < 4) {
      const auto n = static_cast<u32>(2049 + rng.below(1024));
      std::vector<u64> tags(n);
      for (u64& t : tags) t = rng.next();
      fold_result(dev.write(now, rng.below(cap - n + 1), n, tags));
    } else {
      const auto n = static_cast<u32>(1 + rng.below(64));
      const u64 lba = rng.below(hot - n + 1);
      if (dice < 36) {
        std::vector<u64> tags(n);
        for (u64& t : tags) t = rng.next();
        fold_result(dev.write(now, lba, n, tags));
      } else if (dice < 64) {
        std::vector<u64> out(n, 0);
        const IoResult r = dev.read(now, lba, n, out);
        fold_result(r);
        if (r.ok())
          for (u64 t : out) fold(t);
      } else if (dice < 74) {
        const auto bytes = static_cast<size_t>(rng.range(1, 3 * kBlockSize));
        auto p = std::make_shared<std::vector<u8>>(bytes, static_cast<u8>(op));
        fold_result(dev.write_payload(now, lba, p));
        const u64 at = dice < 71 ? lba : rng.below(hot);
        SimTime t = now;
        const auto back = dev.read_payload(now, at, &t);
        fold(static_cast<u64>(t));
        fold(static_cast<u64>(back.code()));
        run.errors[static_cast<size_t>(back.code())]++;
        fold(back.is_ok() && back.value() ? back.value()->size() : 0);
      } else if (dice < 80) {
        fold_result(dev.flush(now));
      } else if (dice < 86) {
        fold_result(dev.trim(now, lba, n));
      } else if (dice < 90) {
        dev.corrupt(lba);
      } else if (dice < 93) {
        dev.inject_media_errors(lba, 1 + rng.below(8));
      } else if (dice < 94) {
        dev.clear_media_errors();
      } else if (dice < 98) {
        dev.fail();
        heal_at = op + 1 + static_cast<int>(rng.below(8));
      } else if (swap) {
        dev.replace_media();
      }
    }
    const double level = gauge ? gauge() : 0.0;
    run.peak_gauge = std::max(run.peak_gauge, level);
    fold(std::bit_cast<u64>(level));
  }
  run.crc = fold_stats(dev.stats(), run.crc);
  return run;
}

// Folds every metric a device registered, name and value, into `crc`.
u32 fold_metrics(const obs::MetricsRegistry& reg, u32 crc) {
  const obs::MetricsSnapshot snap = reg.snapshot();
  auto fold_name = [&crc](const std::string& name) {
    crc = common::crc32c(
        std::span(reinterpret_cast<const u8*>(name.data()), name.size()), crc);
  };
  for (const auto& [name, v] : snap.counters) {
    fold_name(name);
    crc = common::crc32c_of(v, crc);
  }
  for (const auto& [name, v] : snap.gauges) {
    fold_name(name);
    crc = common::crc32c_of(std::bit_cast<u64>(v), crc);
  }
  return crc;
}

LeafRun golden_ssd_run(bool track_content) {
  flash::SimSsd ssd(leaf_ssd_spec(), track_content);
  ssd.precondition();
  obs::MetricsRegistry reg;
  ssd.register_metrics(obs::Scope(reg, "ssd"));
  LeafRun run = run_leaf_io_script(ssd, true, [&reg] {
    return reg.snapshot().gauges.at("ssd.write_buffer_bytes");
  });
  const flash::FtlStats& f = ssd.ftl().stats();
  for (u64 v : {f.host_pages_written, f.total_pages_programmed,
                f.gc_pages_copied, f.blocks_erased})
    run.crc = common::crc32c_of(v, run.crc);
  run.crc = fold_metrics(reg, run.crc);
  return run;
}

// Pins every leaf device's results, timing, content and counters under one
// script, plus SimSsd's FTL counters and registered metrics and the write
// buffers of SimSsd and IscsiTarget: a refactor of the simulated media must
// leave every CRC unchanged. SimHdd runs without drive swaps.
// Every leaf drops what a cut power rail denies: after the cut, writes,
// payload writes, trims and flushes are acked at their issue time and change
// neither media nor DeviceStats, while reads still see the media; once power
// is restored, commands draw and land again.
TEST(Block, PowerRailDropsMediaCommandsAfterTheCut) {
  const auto check = [](SimDevice& dev) {
    PowerRail rail;
    dev.set_power_rail(&rail);
    const u64 a = 0xA;
    const auto payload = std::make_shared<const std::vector<u8>>(16, u8{7});
    ASSERT_TRUE(dev.write(0, 5, 1, std::span(&a, 1)).ok());
    ASSERT_TRUE(dev.write_payload(0, 6, payload).ok());
    EXPECT_EQ(rail.log, (std::vector<DeviceOp>{DeviceOp::kWrite,
                                               DeviceOp::kWritePayload}));
    const DeviceStats before = dev.stats();
    rail.budget = rail.log.size();
    const SimTime now = 1 * sim::kSec;
    const u64 b = 0xB;
    for (const IoResult r :
         {dev.write(now, 7, 1, std::span(&b, 1)),
          dev.write_payload(now, 8, payload), dev.trim(now, 5, 1),
          dev.flush(now)}) {
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r.done, now);
    }
    EXPECT_TRUE(rail.off);
    EXPECT_EQ(rail.log.size(), 2u);
    EXPECT_EQ(dev.stats().write_ops, before.write_ops);
    EXPECT_EQ(dev.stats().trim_ops, before.trim_ops);
    EXPECT_EQ(dev.stats().flushes, before.flushes);
    u64 tags[3] = {};
    ASSERT_TRUE(dev.read(now, 5, 3, tags).ok());
    EXPECT_EQ(tags[0], a);  // the trim never landed
    EXPECT_EQ(tags[2], 0u);  // nor the write of b
    EXPECT_TRUE(dev.read_payload(now, 6, nullptr).is_ok());
    EXPECT_FALSE(dev.read_payload(now, 8, nullptr).is_ok());
    rail.restore();
    ASSERT_TRUE(dev.write(now, 7, 1, std::span(&b, 1)).ok());
    EXPECT_EQ(rail.log.size(), 3u);
    ASSERT_TRUE(dev.read(now, 7, 1, tags).ok());
    EXPECT_EQ(tags[0], b);
    dev.set_power_rail(nullptr);
  };
  MemDisk mem(small_cfg());
  check(mem);
  hdd::SimHdd hdd(leaf_hdd_config());
  check(hdd);
  flash::SimSsd ssd(leaf_ssd_spec(), /*track_content=*/true);
  check(ssd);
}

TEST(Block, GoldenLeafIo) {
  auto fired = [](const LeafRun& run, ErrorCode e) {
    return run.errors[static_cast<size_t>(e)];
  };
  MemDisk mem([] {
    MemDiskConfig cfg;
    cfg.capacity_blocks = 16384;
    return cfg;
  }());
  const LeafRun m = run_leaf_io_script(mem, true, {});
  EXPECT_EQ(m.crc, 0x8a232787u);

  hdd::SimHdd hdd(leaf_hdd_config());
  const LeafRun h = run_leaf_io_script(hdd, false, {});
  EXPECT_EQ(h.crc, 0x8e27ae34u);

  const LeafRun s = golden_ssd_run(true);
  EXPECT_EQ(s.crc, 0x5308d74fu);
  EXPECT_EQ(golden_ssd_run(false).crc, 0x620a2a1du);

  hdd::IscsiTarget iscsi(leaf_iscsi_config());
  obs::MetricsRegistry reg;
  iscsi.register_metrics(obs::Scope(reg, "hdd"));
  const LeafRun i = run_leaf_io_script(iscsi, true, [&reg] {
    return reg.snapshot().gauges.at("hdd.dirty_backlog_bytes");
  });
  // Re-pinned when IscsiTarget::read_payload began counting its read, and
  // when RaidDevice::write_payload began writing each copy once.
  EXPECT_EQ(fold_metrics(reg, i.crc), 0x7f979664u);

  // The script reaches what the pins are meant to cover: fail-stops and
  // latent errors on every leaf, and both write buffers filling up.
  for (const LeafRun* run : {&m, &h, &s}) {
    EXPECT_GT(fired(*run, ErrorCode::kDeviceFailed), 0u);
    EXPECT_GT(fired(*run, ErrorCode::kMediaError), 0u);
    EXPECT_GT(fired(*run, ErrorCode::kNotFound), 0u);
  }
  EXPECT_GT(fired(i, ErrorCode::kDeviceFailed), 0u);
  EXPECT_GT(s.peak_gauge, static_cast<double>(8 * MiB));
  EXPECT_GT(i.peak_gauge, static_cast<double>(MiB * 3 / 4));
}

}  // namespace
}  // namespace srcache::blockdev
