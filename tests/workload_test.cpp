#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <unordered_set>

#include "block/mem_disk.hpp"
#include "cache/cache_device.hpp"
#include "common/crc32c.hpp"
#include "engine/engine.hpp"
#include "workload/closed_loop.hpp"
#include "workload/runner.hpp"
#include "workload/trace_synth.hpp"

namespace srcache::workload {
namespace {

// --- FioGen ------------------------------------------------------------------

TEST(FioGen, StaysInSpan) {
  FioGen::Config cfg;
  cfg.span_blocks = 1000;
  cfg.offset_blocks = 5000;
  cfg.req_blocks = 8;
  FioGen g(cfg);
  for (int i = 0; i < 5000; ++i) {
    const Op op = g.next();
    EXPECT_GE(op.lba, 5000u);
    EXPECT_LE(op.lba + op.nblocks, 6000u);
    EXPECT_EQ(op.nblocks, 8u);
  }
}

TEST(FioGen, AlignedToRequestSize) {
  FioGen::Config cfg;
  cfg.span_blocks = 4096;
  cfg.req_blocks = 16;
  FioGen g(cfg);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(g.next().lba % 16, 0u);
}

TEST(FioGen, PureWriteByDefault) {
  FioGen::Config cfg;
  cfg.span_blocks = 128;
  FioGen g(cfg);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(g.next().is_write);
}

TEST(FioGen, ReadPctRespected) {
  FioGen::Config cfg;
  cfg.span_blocks = 128;
  cfg.read_pct = 70;
  FioGen g(cfg);
  int reads = 0;
  for (int i = 0; i < 20000; ++i) reads += g.next().is_write ? 0 : 1;
  EXPECT_NEAR(reads / 20000.0, 0.7, 0.03);
}

TEST(FioGen, SequentialWraps) {
  FioGen::Config cfg;
  cfg.span_blocks = 32;
  cfg.req_blocks = 8;
  cfg.sequential = true;
  FioGen g(cfg);
  EXPECT_EQ(g.next().lba, 0u);
  EXPECT_EQ(g.next().lba, 8u);
  EXPECT_EQ(g.next().lba, 16u);
  EXPECT_EQ(g.next().lba, 24u);
  EXPECT_EQ(g.next().lba, 0u);  // wrap
}

TEST(FioGen, DeterministicPerSeed) {
  FioGen::Config cfg;
  cfg.span_blocks = 1024;
  cfg.seed = 99;
  FioGen a(cfg), b(cfg);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next().lba, b.next().lba);
}

TEST(FioGen, RejectsEmptySpan) {
  FioGen::Config cfg;
  EXPECT_THROW(FioGen{cfg}, std::invalid_argument);
}

// --- Table 6 specs -----------------------------------------------------------

TEST(TraceSpecs, GroupSizesMatchTable6) {
  EXPECT_EQ(traces_in_group(TraceGroup::kWrite).size(), 10u);
  EXPECT_EQ(traces_in_group(TraceGroup::kMixed).size(), 7u);
  EXPECT_EQ(traces_in_group(TraceGroup::kRead).size(), 5u);
}

TEST(TraceSpecs, KnownRows) {
  const auto& w = traces_in_group(TraceGroup::kWrite);
  EXPECT_STREQ(w[0].name, "prxy0");
  EXPECT_NEAR(w[0].avg_req_kb, 7.07, 1e-9);
  EXPECT_EQ(w[0].read_pct, 3);
  const auto& r = traces_in_group(TraceGroup::kRead);
  EXPECT_STREQ(r[3].name, "src21");
  EXPECT_EQ(r[3].read_pct, 99);
}

TEST(TraceSpecs, GroupCharacter) {
  // Average read ratio must rank Write < Mixed < Read.
  auto avg = [](TraceGroup g) {
    double s = 0;
    for (const auto& t : traces_in_group(g)) s += t.read_pct;
    return s / static_cast<double>(traces_in_group(g).size());
  };
  EXPECT_LT(avg(TraceGroup::kWrite), avg(TraceGroup::kMixed));
  EXPECT_LT(avg(TraceGroup::kMixed), avg(TraceGroup::kRead));
}

// --- TraceSynth --------------------------------------------------------------

TraceSynth::Config synth_cfg(const char* name = "test", double req_kb = 12.0,
                             int read_pct = 30) {
  TraceSynth::Config cfg;
  cfg.spec = TraceSpec{name, req_kb, 10.0, read_pct};
  cfg.footprint_blocks = 100000;
  cfg.offset_blocks = 1 << 20;
  cfg.seed = 5;
  return cfg;
}

TEST(TraceSynth, MeanRequestSizeMatchesSpec) {
  TraceSynth g(synth_cfg("t", 12.0));
  double blocks = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) blocks += g.next().nblocks;
  const double mean_kb = blocks / n * 4.0;
  EXPECT_NEAR(mean_kb, 12.0, 1.5);
}

TEST(TraceSynth, ReadRatioMatchesSpec) {
  TraceSynth g(synth_cfg("t", 8.0, 72));
  int reads = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) reads += g.next().is_write ? 0 : 1;
  EXPECT_NEAR(reads / static_cast<double>(n), 0.72, 0.03);
}

TEST(TraceSynth, StaysInFootprint) {
  auto cfg = synth_cfg();
  TraceSynth g(cfg);
  for (int i = 0; i < 20000; ++i) {
    const Op op = g.next();
    EXPECT_GE(op.lba, cfg.offset_blocks);
    EXPECT_LE(op.lba + op.nblocks, cfg.offset_blocks + cfg.footprint_blocks);
  }
}

TEST(TraceSynth, SkewedAccessPattern) {
  // Zipf skew: a small fraction of blocks should receive most accesses.
  auto cfg = synth_cfg();
  cfg.seq_prob = 0.0;
  TraceSynth g(cfg);
  std::unordered_map<u64, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) counts[g.next().lba]++;
  std::vector<int> c;
  c.reserve(counts.size());
  for (auto& [lba, k] : counts) c.push_back(k);
  std::sort(c.rbegin(), c.rend());
  u64 top = 0, total = 0;
  for (size_t i = 0; i < c.size(); ++i) {
    if (i < c.size() / 20) top += c[i];  // hottest 5% of touched lbas
    total += c[i];
  }
  EXPECT_GT(static_cast<double>(top) / static_cast<double>(total), 0.25);
}

TEST(TraceSynth, SequentialRunsOccur) {
  auto cfg = synth_cfg();
  cfg.seq_prob = 0.5;
  TraceSynth g(cfg);
  int sequential = 0;
  Op prev = g.next();
  for (int i = 0; i < 10000; ++i) {
    const Op op = g.next();
    if (op.lba == prev.lba + prev.nblocks) ++sequential;
    prev = op;
  }
  EXPECT_GT(sequential, 3000);
}

TEST(TraceSynth, RejectsEmptyFootprint) {
  auto cfg = synth_cfg();
  cfg.footprint_blocks = 0;
  EXPECT_THROW(TraceSynth{cfg}, std::invalid_argument);
}

// --- make_trace_set ----------------------------------------------------------

TEST(TraceSet, FootprintsPartitionTheSpace) {
  const TraceSet set = make_trace_set(TraceGroup::kWrite, 8 * GiB, 1);
  ASSERT_EQ(set.traces.size(), 10u);
  u64 expected_offset = 0;
  for (const auto& t : set.traces) {
    EXPECT_EQ(t->config().offset_blocks, expected_offset);
    expected_offset += t->config().footprint_blocks;
  }
  EXPECT_EQ(set.total_blocks, expected_offset);
  // Total footprint within 5% of the request (rounding per trace).
  EXPECT_NEAR(static_cast<double>(set.total_blocks) * kBlockSize,
              static_cast<double>(8 * GiB), 0.05 * 8 * GiB);
}

TEST(TraceSet, FootprintProportionalToVolume) {
  const TraceSet set = make_trace_set(TraceGroup::kWrite, 8 * GiB, 1);
  // exch9 (110.46 GB volume) must dwarf mds0 (11.08 GB).
  const auto& exch9 = set.traces[1];
  const auto& mds0 = set.traces[2];
  EXPECT_GT(exch9->config().footprint_blocks,
            5 * mds0->config().footprint_blocks);
}

TEST(TraceSet, GeneratorsViewMatches) {
  const TraceSet set = make_trace_set(TraceGroup::kRead, 1 * GiB, 2);
  EXPECT_EQ(set.generators().size(), set.traces.size());
}

// --- Closed-loop runs --------------------------------------------------------

// A trivial pass-through cache over a MemDisk for run mechanics tests.
class PassThroughCache final : public cache::CacheDevice {
 public:
  explicit PassThroughCache(blockdev::BlockDevice* dev) : dev_(dev) {}
  sim::SimTime submit(const cache::AppRequest& req) override {
    if (req.is_write) {
      stats_.app_write_ops++;
      stats_.app_write_blocks += req.nblocks;
      return dev_->write(req.now, req.lba, req.nblocks, {}).done;
    }
    stats_.app_read_ops++;
    stats_.app_read_blocks += req.nblocks;
    return dev_->read(req.now, req.lba, req.nblocks, {}).done;
  }
  sim::SimTime flush(sim::SimTime now) override { return now; }
  const cache::CacheStats& stats() const override { return stats_; }
  u64 cached_blocks() const override { return 0; }

 private:
  blockdev::BlockDevice* dev_;
  cache::CacheStats stats_;
};

// One closed-loop replay of `gen` through `cache` over `disk`, driven as a
// single engine domain.
RunResult run_one(PassThroughCache& cache, blockdev::MemDisk& disk,
                  Generator& gen, const RunConfig& rc) {
  engine::DomainSetup s;
  s.cache = &cache;
  s.ssds = {&disk};
  s.gens = {&gen};
  s.cfg = rc;
  return engine::ParallelEngine({}).run(1, [&](u32, u32) { return s; }).merged;
}

TEST(Runner, MeasuresThroughputAgainstKnownDevice) {
  blockdev::MemDiskConfig mc;
  mc.capacity_blocks = 1 << 20;
  mc.op_latency = 100 * sim::kUs;  // 10K IOPS single-stream
  mc.bandwidth_mbps = 1e9;         // latency-bound
  blockdev::MemDisk disk(mc);
  PassThroughCache cache(&disk);

  FioGen::Config fc;
  fc.span_blocks = 1 << 20;
  fc.req_blocks = 1;
  FioGen gen(fc);
  RunConfig rc;
  rc.threads_per_gen = 1;
  rc.iodepth = 1;
  rc.duration = 1 * sim::kSec;
  const RunResult res = run_one(cache, disk, gen, rc);
  // Single serial device at 100us/op -> ~10000 ops in 1s.
  EXPECT_NEAR(static_cast<double>(res.ops), 10000.0, 500.0);
  EXPECT_NEAR(res.throughput_mbps, 10000.0 * 4096 / 1e6, 3.0);
  EXPECT_NEAR(res.io_amplification, 1.0, 0.01);
}

TEST(Runner, MoreStreamsSaturateSerialDevice) {
  blockdev::MemDiskConfig mc;
  mc.capacity_blocks = 1 << 16;
  mc.op_latency = 100 * sim::kUs;
  blockdev::MemDisk disk(mc);
  PassThroughCache cache(&disk);
  FioGen::Config fc;
  fc.span_blocks = 1 << 16;
  FioGen gen(fc);
  RunConfig rc;
  rc.threads_per_gen = 4;
  rc.iodepth = 8;
  rc.duration = 500 * sim::kMs;
  const RunResult res = run_one(cache, disk, gen, rc);
  // The device is serial: queue depth cannot raise throughput above 10K.
  EXPECT_LT(res.ops, 6000u);
  EXPECT_GT(res.ops, 4000u);
}

TEST(Runner, WarmupExcludedFromStats) {
  blockdev::MemDiskConfig mc;
  mc.capacity_blocks = 1 << 20;
  mc.op_latency = 100 * sim::kUs;
  blockdev::MemDisk disk(mc);
  PassThroughCache cache(&disk);
  FioGen::Config fc;
  fc.span_blocks = 1 << 20;
  FioGen gen(fc);
  RunConfig rc;
  rc.threads_per_gen = 1;
  rc.iodepth = 1;
  rc.duration = 500 * sim::kMs;
  rc.warmup_bytes = 10 * MiB;  // 2560 ops of warm-up
  const RunResult res = run_one(cache, disk, gen, rc);
  // Throughput reflects only the measured window (10K IOPS device):
  // ~5000 ops in 0.5 s regardless of the warm-up volume.
  EXPECT_NEAR(static_cast<double>(res.ops), 5000.0, 300.0);
  EXPECT_NEAR(res.io_amplification, 1.0, 0.01);
}

TEST(TraceSynth, ExtentHotnessClustersSpatially) {
  // With extent-granular hotness, the hottest blocks appear in contiguous
  // clumps of roughly extent size.
  auto cfg = synth_cfg();
  cfg.seq_prob = 0.0;
  cfg.extent_blocks = 32;
  TraceSynth g(cfg);
  std::unordered_map<u64, int> counts;
  for (int i = 0; i < 60000; ++i) counts[g.next().lba / 32]++;  // per extent
  int hot_extents = 0;
  for (auto& [e, c] : counts)
    if (c > 600) ++hot_extents;
  EXPECT_GT(hot_extents, 0);   // a few extents dominate
  EXPECT_LT(hot_extents, 40);  // ...and only a few
}

TEST(TraceSynth, DeterministicPerSeedAndConfig) {
  // Same seed + config must yield byte-identical op streams: the repro
  // pipeline (REPRO_JSON baselines, the multi-tenant acceptance runs)
  // depends on generators being pure functions of their configuration.
  auto cfg = synth_cfg();
  cfg.tenant = 3;
  TraceSynth a(cfg), b(cfg);
  for (int i = 0; i < 5000; ++i) {
    const Op x = a.next(), y = b.next();
    EXPECT_EQ(x.is_write, y.is_write);
    EXPECT_EQ(x.lba, y.lba);
    EXPECT_EQ(x.nblocks, y.nblocks);
    EXPECT_EQ(x.tenant, y.tenant);
    EXPECT_EQ(x.tenant, 3u);
  }
}

// The op stream of a fixed TraceSynth and the draws of a fixed ZipfSampler
// are pinned by CRC: a refactor of either (hoisting loop-invariant math,
// say) must leave every op and every draw bit for bit as it was.
TEST(TraceSynth, PinnedOpStreamCrc) {
  TraceSynth g(synth_cfg("pin", 9.59, 29));
  u32 crc = 0;
  for (int i = 0; i < 10000; ++i) {
    const Op op = g.next();
    crc = common::crc32c_of(op.lba, crc);
    crc = common::crc32c_of(op.nblocks, crc);
    crc = common::crc32c_of(op.is_write, crc);
    crc = common::crc32c_of(op.tenant, crc);
    crc = common::crc32c_of(op.comp_pct, crc);
  }
  EXPECT_EQ(crc, 0x426a92afu);
}

TEST(ZipfSampler, PinnedDrawCrc) {
  // The sampler TraceSynth builds for synth_cfg(): 100000 / 32 extents.
  common::ZipfSampler zipf(3125, 1.1, 5 ^ 0x5eed);
  u32 crc = 0;
  for (int i = 0; i < 10000; ++i) crc = common::crc32c_of(zipf.next(), crc);
  EXPECT_EQ(crc, 0xb93e76a0u);
}

TEST(TraceSynth, SeedChangesTheStream) {
  auto cfg = synth_cfg();
  TraceSynth a(cfg);
  cfg.seed += 1;
  TraceSynth b(cfg);
  int diff = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next().lba != b.next().lba) ++diff;
  EXPECT_GT(diff, 900);  // different seed, different placement
}

TEST(TenantMixGen, DeterministicMergeWithTenantTags) {
  // The mixed stream — source interleaving AND each source's own sequence —
  // replays identically for the same seeds, with every op carrying its
  // source's tenant tag.
  auto mk = [] {
    auto hot = synth_cfg();
    hot.tenant = 0;
    FioGen::Config sweep;
    sweep.span_blocks = 4096;
    sweep.seed = 11;
    sweep.tenant = 1;
    struct Streams {
      TraceSynth hot;
      FioGen sweep;
      TenantMixGen mix;
      Streams(const TraceSynth::Config& h, const FioGen::Config& s)
          : hot(h), sweep(s), mix({{&hot, 3.0}, {&sweep, 1.0}}, 17) {}
    };
    return std::make_unique<Streams>(hot, sweep);
  };
  auto a = mk();
  auto b = mk();
  int tenant1_ops = 0;
  for (int i = 0; i < 5000; ++i) {
    const Op x = a->mix.next(), y = b->mix.next();
    EXPECT_EQ(x.tenant, y.tenant);
    EXPECT_EQ(x.lba, y.lba);
    EXPECT_EQ(x.nblocks, y.nblocks);
    EXPECT_EQ(x.is_write, y.is_write);
    if (x.tenant == 1) ++tenant1_ops;
  }
  // The 3:1 weights actually mix: the minority source is present in rough
  // proportion, so the determinism above covers both sources.
  EXPECT_GT(tenant1_ops, 1000);
  EXPECT_LT(tenant1_ops, 1600);
}

TEST(Runner, MaxOpsBudgetRespected) {
  blockdev::MemDiskConfig mc;
  blockdev::MemDisk disk(mc);
  PassThroughCache cache(&disk);
  FioGen::Config fc;
  fc.span_blocks = 1024;
  FioGen gen(fc);
  RunConfig rc;
  rc.duration = 100 * sim::kSec;
  rc.max_ops = 123;
  EXPECT_EQ(run_one(cache, disk, gen, rc).ops, 123u);
}

// --- ClosedLoop issue order --------------------------------------------------

// Each op carries its generator's index in `tenant`, so the cache below can
// log which stream issued it.
class IndexGen final : public Generator {
 public:
  explicit IndexGen(u32 index) : index_(index) {}
  Op next() override {
    Op op;
    op.tenant = index_;
    op.lba = next_lba_++;
    return op;
  }
  const char* name() const override { return "index"; }

 private:
  u32 index_;
  u64 next_lba_ = 0;
};

// Completion times on a coarse 1 us grid, one to three grid steps after the
// issue, from a seeded RNG: many streams complete at the same instant, and
// many of those belong to the same generator, so the loop's tie order
// decides the issue sequence. Optionally the `huge_at`-th submit completes
// at `huge`.
class CoarseCache final : public cache::CacheDevice {
 public:
  explicit CoarseCache(u64 seed) : rng_(seed) {}
  sim::SimTime submit(const cache::AppRequest& req) override {
    issued.emplace_back(req.now, req.tenant);
    stats_.app_read_ops++;
    stats_.app_read_blocks += req.nblocks;
    if (issued.size() == huge_at) return huge;
    return done_after(req.now, rng_);
  }
  sim::SimTime flush(sim::SimTime now) override { return now; }
  const cache::CacheStats& stats() const override { return stats_; }
  u64 cached_blocks() const override { return 0; }

  static sim::SimTime done_after(sim::SimTime now, common::Xoshiro256& rng) {
    return (now / sim::kUs + 1 + static_cast<sim::SimTime>(rng.below(3))) *
           sim::kUs;
  }

  std::vector<std::pair<sim::SimTime, u32>> issued;
  size_t huge_at = 0;  // 1-based submit count; 0 = never
  sim::SimTime huge = 0;

 private:
  common::Xoshiro256 rng_;
  cache::CacheStats stats_;
};

// The (now, generator) sequence a reference min-heap of (completion,
// generator) pairs issues for the same streams and completions.
std::vector<std::pair<sim::SimTime, u32>> reference_issues(
    size_t gens, size_t streams_per_gen, u64 seed, size_t count) {
  using Entry = std::pair<sim::SimTime, u32>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  sim::SimTime t0 = 0;
  for (u32 g = 0; g < gens; ++g) {
    for (size_t s = 0; s < streams_per_gen; ++s, t0 += 100) heap.emplace(t0, g);
  }
  common::Xoshiro256 rng(seed);
  std::vector<Entry> out;
  while (out.size() < count) {
    const Entry e = heap.top();
    heap.pop();
    out.push_back(e);
    heap.emplace(CoarseCache::done_after(e.first, rng), e.second);
  }
  return out;
}

TEST(ClosedLoop, IssueOrderMatchesReferenceHeap) {
  for (const size_t gens : {size_t{1}, size_t{10}}) {
    SCOPED_TRACE(gens);
    constexpr u64 kSeed = 11;
    CoarseCache cache(kSeed);
    std::vector<std::unique_ptr<IndexGen>> owned;
    std::vector<Generator*> ptrs;
    for (u32 g = 0; g < gens; ++g) {
      owned.push_back(std::make_unique<IndexGen>(g));
      ptrs.push_back(owned.back().get());
    }
    RunConfig rc;
    rc.threads_per_gen = 4;
    rc.iodepth = 4;  // 16 streams per generator, 160 for ten
    rc.warmup_bytes = 500 * kBlockSize;
    rc.duration = 2 * sim::kMs;
    ClosedLoop loop(&cache, {}, ptrs, rc);
    loop.warmup();
    loop.start();
    // Pause at a few barriers on the way: where the loop stops must not
    // change what it issues.
    for (sim::SimTime t = 0; loop.run_until(t); t += 300 * sim::kUs) {
      EXPECT_GE(loop.next_event(), t);
    }
    const auto want =
        reference_issues(gens, 16, kSeed, cache.issued.size() + 1);
    ASSERT_GT(cache.issued.size(), 1000u);
    for (size_t i = 0; i < cache.issued.size(); ++i) {
      ASSERT_EQ(cache.issued[i], want[i]) << "issue " << i;
    }
    // The stream left at the front is the reference's next one.
    EXPECT_EQ(loop.next_event(), want.back().first);
    // Ties are common: the test exercises the queue's tie order.
    size_t tied = 0;
    for (size_t i = 1; i < want.size(); ++i) tied += want[i] == want[i - 1];
    EXPECT_GT(tied, want.size() / 4);
  }
}

// A completion time too large for the stream queue's packed key throws
// std::overflow_error before the queue changes: the stream whose op
// overflowed stays at the front and issues again at the same instant.
TEST(ClosedLoop, CompletionPastPackedKeyThrowsAndKeepsQueue) {
  CoarseCache cache(3);
  std::vector<std::unique_ptr<IndexGen>> owned;
  std::vector<Generator*> ptrs;
  for (u32 g = 0; g < 10; ++g) {
    owned.push_back(std::make_unique<IndexGen>(g));
    ptrs.push_back(owned.back().get());
  }
  // Ten generators take 4 index bits, leaving 60 for the time.
  cache.huge_at = 50;
  cache.huge = sim::SimTime{1} << 60;
  RunConfig rc;
  rc.threads_per_gen = 1;
  rc.iodepth = 2;
  rc.duration = std::numeric_limits<sim::SimTime>::max() / 4;
  ClosedLoop loop(&cache, {}, ptrs, rc);
  loop.start();
  EXPECT_THROW(loop.run_until(sim::kSec), std::overflow_error);
  ASSERT_EQ(cache.issued.size(), 50u);
  const auto failed = cache.issued.back();
  EXPECT_EQ(loop.next_event(), failed.first);
  EXPECT_EQ(loop.ops(), 49u);
  cache.huge_at = 0;
  EXPECT_TRUE(loop.run_until(failed.first + 1));
  ASSERT_GT(cache.issued.size(), 50u);
  EXPECT_EQ(cache.issued[50], failed);
  // The largest time that fits is accepted.
  cache.huge_at = cache.issued.size() + 1;
  cache.huge = (sim::SimTime{1} << 60) - 1;
  EXPECT_TRUE(loop.run_until(loop.next_event() + 10 * sim::kUs));
  EXPECT_GE(cache.issued.size(), cache.huge_at);
}

}  // namespace
}  // namespace srcache::workload
