// Microbenchmarks (google-benchmark): hot paths of the simulation substrate,
// followed by one end-to-end SRC run whose latency percentiles and metrics
// are printed and (with REPRO_JSON=<path>) written as machine-readable JSON.
#include <benchmark/benchmark.h>

#include "block/mem_disk.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "flash/ftl.hpp"
#include "harness.hpp"
#include "raid/raid_device.hpp"

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

void BM_FtlRandomWrite(benchmark::State& state) {
  flash::FtlConfig cfg;
  cfg.units = 8;
  cfg.pages_per_block = 256;
  cfg.exported_pages = 1 << 18;
  cfg.ops_fraction = 0.07;
  flash::Ftl ftl(cfg);
  for (u64 p = 0; p < cfg.exported_pages; ++p) ftl.write(p);
  // WA over the timed random writes only: the sequential fill programs one
  // page per host page and would dilute it by an iteration-dependent share.
  const flash::FtlStats filled = ftl.stats();
  common::Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.write(rng.below(cfg.exported_pages)));
  }
  flash::FtlStats timed = ftl.stats();
  timed.host_pages_written -= filled.host_pages_written;
  timed.total_pages_programmed -= filled.total_pages_programmed;
  state.counters["WA"] = timed.write_amplification();
}
BENCHMARK(BM_FtlRandomWrite);

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
// the Runner adds) — a couple of branches and a histogram bucket increment.
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

void BM_TraceComplete(benchmark::State& state) {
  obs::TraceLog trace(4096);
  sim::SimTime t = 0;
  for (auto _ : state) {
    trace.complete("req.read", obs::kTrackApp, t, t + 1000, 8);
    t += 1000;
  }
  benchmark::DoNotOptimize(trace.size());
}
BENCHMARK(BM_TraceComplete);

// One end-to-end SRC run (small scale) so a single `bench_micro` invocation
// exercises the full stack and — with REPRO_JSON — emits the paper metrics,
// latency percentiles and per-layer counters machine-readably.
void run_end_to_end() {
  using namespace srcache::bench;
  const double k = std::min(scale(), 0.1);
  auto rig = make_src_rig(default_src_config(), flash::spec_840pro_128(), k);
  const auto res = run_group(*rig, workload::TraceGroup::kMixed, k);

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

  report_run("bench_micro", "src_mixed", res);
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
