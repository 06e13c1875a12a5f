#include "workload/runner.hpp"

#include "workload/closed_loop.hpp"

namespace srcache::workload {

void summarize(RunResult& r) {
  r.throughput_mbps =
      r.seconds > 0.0 ? static_cast<double>(r.bytes) / 1e6 / r.seconds : 0.0;
  r.io_amplification = ratio_of(r.ssd.total_blocks(), r.cache.app_blocks());
  r.hit_ratio = r.cache.hit_ratio();

  r.read_lat = obs::LatencySummary::of(r.latency.reads());
  r.write_lat = obs::LatencySummary::of(r.latency.writes());
  for (int c = 0; c < obs::kNumReqClasses; ++c) {
    r.class_lat[static_cast<size_t>(c)] = obs::LatencySummary::of(
        r.latency.histogram(static_cast<obs::ReqClass>(c)));
  }
  r.latency_clamped = r.latency.clamped();
  // Surface the clamp counter alongside the stack's own metrics so timing
  // bugs show up in REPRO_JSON instead of being swallowed.
  r.metrics.counters["obs.latency.clamped"] = r.latency_clamped;

  FaultOutcome& f = r.fault;
  if (!f.active) return;
  // A merged result splits at the earliest fault across domains. When the
  // same plan is delivered to every domain at the same window-relative time
  // (the engine's normal mode) all domains agree and this is exact; with
  // heterogeneous plans it is the conservative split.
  if (f.first_fault_s < 0.0) {
    f.healthy_mbps = r.throughput_mbps;
    return;
  }
  const double healthy_s = f.first_fault_s;
  const double degraded_s = r.seconds - healthy_s;
  const u64 healthy_bytes = r.bytes - f.degraded_bytes;
  if (healthy_s > 0.0)
    f.healthy_mbps = static_cast<double>(healthy_bytes) / 1e6 / healthy_s;
  if (degraded_s > 0.0)
    f.degraded_mbps = static_cast<double>(f.degraded_bytes) / 1e6 / degraded_s;
  f.degraded_read_lat = obs::LatencySummary::of(f.degraded_latency.reads());
  f.degraded_write_lat = obs::LatencySummary::of(f.degraded_latency.writes());
}

Runner::Runner(cache::CacheDevice* cache,
               std::vector<blockdev::BlockDevice*> ssds)
    : cache_(cache), ssds_(std::move(ssds)) {}

RunResult Runner::run(const std::vector<Generator*>& gens,
                      const RunConfig& cfg) {
  ClosedLoop loop(cache_, ssds_, gens, cfg);
  loop.warmup();
  loop.start();
  loop.run_to_end();
  return loop.finish();
}

}  // namespace srcache::workload
