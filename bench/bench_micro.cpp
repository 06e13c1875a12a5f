// Microbenchmarks (google-benchmark): hot paths of the simulation substrate,
// followed by one end-to-end SRC run whose latency percentiles and metrics
// are printed and (with REPRO_JSON=<path>) written as machine-readable JSON.
#include <benchmark/benchmark.h>

#include "block/mem_disk.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "flash/ftl.hpp"
#include "flash/sim_ssd.hpp"
#include "flash/ssd_specs.hpp"
#include "harness.hpp"
#include "raid/raid_device.hpp"
#include "sim/timeline.hpp"
#include "workload/closed_loop.hpp"

namespace {

using namespace srcache;

void BM_Crc32cBlockTag(benchmark::State& state) {
  u64 tag = 0x123456789ABCDEF0ull;
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::crc32c_of(tag));
    ++tag;
  }
}
BENCHMARK(BM_Crc32cBlockTag);

void BM_Crc32c4K(benchmark::State& state) {
  std::vector<u8> buf(4096, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::crc32c(buf));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 4096);
}
BENCHMARK(BM_Crc32c4K);

void BM_XoshiroNext(benchmark::State& state) {
  common::Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_XoshiroNext);

void BM_ZipfNext(benchmark::State& state) {
  common::ZipfSampler zipf(1 << 20, 1.1, 2);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.next());
}
BENCHMARK(BM_ZipfNext);

// An FTL brought to random-write steady state: a sequential fill, then
// untimed random overwrites of four times the logical capacity. Built once
// and copied into each run, so the WA counter reads steady state from the
// first timed iteration.
const flash::Ftl& steady_random_ftl() {
  static const flash::Ftl ftl = [] {
    flash::FtlConfig cfg;
    cfg.units = 8;
    cfg.pages_per_block = 256;
    cfg.exported_pages = 1 << 18;
    cfg.ops_fraction = 0.07;
    flash::Ftl f(cfg);
    for (u64 p = 0; p < cfg.exported_pages; ++p) f.write(p);
    common::Xoshiro256 rng(2);
    for (u64 i = 0; i < 4 * cfg.exported_pages; ++i) {
      f.write(rng.below(cfg.exported_pages));
    }
    return f;
  }();
  return ftl;
}

void BM_FtlRandomWrite(benchmark::State& state) {
  flash::Ftl ftl = steady_random_ftl();
  const u64 pages = ftl.config().exported_pages;
  // WA over the timed writes only.
  const flash::FtlStats before = ftl.stats();
  common::Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.write(rng.below(pages)));
  }
  flash::FtlStats timed = ftl.stats();
  timed.host_pages_written -= before.host_pages_written;
  timed.total_pages_programmed -= before.total_pages_programmed;
  state.counters["WA"] = timed.write_amplification();
}
BENCHMARK(BM_FtlRandomWrite);

// NAND-unit placement: batches of `range(0)` equal ops over 32 units, as
// SimSsd charges a command's page programs. Arrivals are spaced at random
// around the time the batch occupies each unit, so batches find the units
// sometimes idle and sometimes backlogged.
void BM_MultiServerBatch(benchmark::State& state) {
  const auto count = static_cast<u64>(state.range(0));
  constexpr int kUnits = 32;
  constexpr sim::SimTime kPerOp = 200 * sim::kUs;
  const auto mean_gap = static_cast<u64>(
      std::max<u64>(count / kUnits, 1) * static_cast<u64>(kPerOp));
  sim::MultiServer nand(kUnits);
  common::Xoshiro256 rng(6);
  sim::SimTime now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nand.submit_batch(now, count, kPerOp));
    now += static_cast<sim::SimTime>(rng.below(2 * mean_gap + 1));
  }
}
BENCHMARK(BM_MultiServerBatch)->Arg(128)->Arg(4);

// A preconditioned SimSsd taking 512 KiB writes in one log-structured pass
// after another over its LBA space, each issued when the last completes:
// the controller, interface, FTL and NAND placement of SRC's chunk writes.
// 64-page blocks keep the drive at 8 erase groups (64 MiB).
void BM_SsdChunkWrite(benchmark::State& state) {
  flash::SsdSpec spec = flash::spec_840pro_128();
  spec.pages_per_block = 64;
  spec.capacity_bytes = 8 * static_cast<u64>(spec.units) * 64 * kBlockSize;
  flash::SimSsd ssd(spec, /*track_content=*/false);
  ssd.precondition();
  constexpr u32 kChunk = 512 * KiB / kBlockSize;
  const u64 chunks = ssd.capacity_blocks() / kChunk;
  u64 next = 0;
  sim::SimTime now = 0;
  for (u64 i = 0; i < 2 * chunks; ++i) {  // untimed: one more full pass
    now = ssd.write(now, (next++ % chunks) * kChunk, kChunk, {}).done;
  }
  const flash::FtlStats before = ssd.ftl().stats();
  for (auto _ : state) {
    now = ssd.write(now, (next++ % chunks) * kChunk, kChunk, {}).done;
  }
  flash::FtlStats timed = ssd.ftl().stats();
  timed.host_pages_written -= before.host_pages_written;
  timed.total_pages_programmed -= before.total_pages_programmed;
  state.counters["WA"] = timed.write_amplification();
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 512 * KiB);
}
BENCHMARK(BM_SsdChunkWrite);

void BM_Raid5SmallWrite(benchmark::State& state) {
  blockdev::MemDiskConfig mc;
  mc.capacity_blocks = 1 << 16;
  mc.track_content = false;
  std::vector<std::unique_ptr<blockdev::MemDisk>> disks;
  std::vector<blockdev::BlockDevice*> members;
  for (int i = 0; i < 4; ++i) {
    disks.push_back(std::make_unique<blockdev::MemDisk>(mc));
    members.push_back(disks.back().get());
  }
  raid::RaidDevice r5(raid::RaidConfig{raid::RaidLevel::kRaid5, 1}, members);
  common::Xoshiro256 rng(4);
  sim::SimTime t = 0;
  for (auto _ : state) {
    const u64 lba = rng.below(r5.capacity_blocks());
    benchmark::DoNotOptimize(r5.write(t, lba, 1, {}));
    t += 1000;
  }
}
BENCHMARK(BM_Raid5SmallWrite);

// MetricsRegistry snapshot cost (pull path; nothing touches the hot path).
void BM_RegistrySnapshot(benchmark::State& state) {
  obs::MetricsRegistry reg;
  u64 n = 0;
  for (int i = 0; i < 64; ++i) {
    reg.counter_fn("c" + std::to_string(i), [&n] { return n; });
  }
  for (auto _ : state) {
    ++n;
    benchmark::DoNotOptimize(reg.snapshot());
  }
}
BENCHMARK(BM_RegistrySnapshot);

// Per-request cost of the latency recorder (the only per-op instrumentation
// the closed loop adds) — a couple of branches and a histogram bucket
// increment.
void BM_LatencyRecord(benchmark::State& state) {
  obs::LatencyRecorder rec;
  common::Xoshiro256 rng(5);
  for (auto _ : state) {
    rec.record(static_cast<obs::ReqClass>(rng.below(obs::kNumReqClasses)),
               static_cast<sim::SimTime>(rng.below(1u << 24)));
  }
  benchmark::DoNotOptimize(rec.reads().count());
}
BENCHMARK(BM_LatencyRecord);

void BM_SpanTimelineEvent(benchmark::State& state) {
  obs::SpanTracer tracer(1, 0.0, 1, /*timeline_cap=*/4096);
  sim::SimTime t = 0;
  for (auto _ : state) {
    tracer.event("req.read", obs::kLaneApp, t, t + 1000, 8);
    t += 1000;
  }
  benchmark::DoNotOptimize(tracer.timeline().size());
}
BENCHMARK(BM_SpanTimelineEvent);

// A cache that serves every request in 50-181 us, spread by lba so that
// completions interleave across streams, and a generator that only counts:
// what the closed loop pays per op besides the cache and the traces.
class NullCache final : public cache::CacheDevice {
 public:
  sim::SimTime submit(const cache::AppRequest& req) override {
    return req.now + 50 * sim::kUs +
           static_cast<sim::SimTime>((req.lba * 0x9E3779B97F4A7C15ull) >> 47);
  }
  sim::SimTime flush(sim::SimTime now) override { return now; }
  const cache::CacheStats& stats() const override { return stats_; }
  u64 cached_blocks() const override { return 0; }

 private:
  cache::CacheStats stats_;
};

class CountingGen final : public workload::Generator {
 public:
  workload::Op next() override {
    workload::Op op;
    op.lba = ++count_;
    return op;
  }
  const char* name() const override { return "counting"; }

 private:
  u64 count_ = 0;
};

// The closed loop's per-op issue cost with the Write group's 160 streams
// (10 traces x 4 threads x iodepth 4). Each iteration issues the ops due
// at the front stream's time, one unless streams tie; items/s is ops/s.
void BM_ClosedLoopIssue(benchmark::State& state) {
  NullCache cache;
  std::vector<CountingGen> gens(10);
  std::vector<workload::Generator*> ptrs;
  for (auto& g : gens) ptrs.push_back(&g);
  workload::RunConfig rc;
  rc.threads_per_gen = 4;
  rc.iodepth = 4;
  rc.duration = 1'000'000 * sim::kSec;  // never reached
  workload::ClosedLoop loop(&cache, {}, ptrs, rc);
  loop.start();
  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.run_until(loop.next_event() + 1));
  }
  state.SetItemsProcessed(static_cast<i64>(loop.ops()));
}
BENCHMARK(BM_ClosedLoopIssue);

// One end-to-end SRC run (small scale) so a single `bench_micro` invocation
// exercises the full stack and — with REPRO_JSON — emits the paper metrics,
// latency percentiles and per-layer counters machine-readably.
void run_end_to_end() {
  using namespace srcache::bench;
  const double k = std::min(scale(), 0.1);
  const auto res = run_sweep(
      "bench_micro",
      {src_cell("src_mixed", default_src_config(), flash::spec_840pro_128(),
                workload::TraceGroup::kMixed, k)})[0];

  std::printf("\n=== end-to-end SRC sample (mixed group, scale=%.3g) ===\n", k);
  common::Table t({"Metric", "Value"});
  t.add_row({"throughput MB/s", common::Table::num(res.throughput_mbps, 1)});
  t.add_row({"I/O amplification", common::Table::num(res.io_amplification, 3)});
  t.add_row({"hit ratio", common::Table::num(res.hit_ratio, 3)});
  t.add_row({"read p50 us", common::Table::num(res.read_lat.p50 / 1e3, 1)});
  t.add_row({"read p95 us", common::Table::num(res.read_lat.p95 / 1e3, 1)});
  t.add_row({"read p99 us", common::Table::num(res.read_lat.p99 / 1e3, 1)});
  t.add_row({"write p50 us", common::Table::num(res.write_lat.p50 / 1e3, 1)});
  t.add_row({"write p95 us", common::Table::num(res.write_lat.p95 / 1e3, 1)});
  t.add_row({"write p99 us", common::Table::num(res.write_lat.p99 / 1e3, 1)});
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  srcache::bench::print_header(
      "Microbenchmarks + end-to-end SRC sample",
      "component costs behind every table (no paper counterpart)");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_end_to_end();
  return 0;
}
