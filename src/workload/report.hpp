// Machine-readable bench output (REPRO_JSON).
//
// Every bench binary prints human tables; with REPRO_JSON=<path> in the
// environment the harness also appends each measured run — the paper metrics
// (throughput, I/O amplification, hit ratio), the latency percentiles, and
// the full metrics-registry delta for the measurement window — to one JSON
// document, so the perf trajectory across commits is machine-tracked instead
// of scraped from text tables.
//
// Schema (stable; version bumps change "schema"). The "cache", "ssd",
// "fault", "rebuild", "tier" and "tenants" counters are the rows of the
// CounterField tables beside their structs (kCacheStatsFields, ...), in
// table order; tests/result_fields_test.cpp pins each block's key list.
//   { "schema": "srcache-repro-v7",
//     "scale": 0.25, "virtual_seconds": 10,
//     "runs": [ { "bench": ..., "name": ...,
//                 "seconds", "ops", "bytes",
//                 "throughput_mbps", "io_amplification", "hit_ratio",
//                 "latency_ns": { "clamped",
//                                 "read"|"write"|<class>:
//                                 {count,mean,p50,p95,p99,p999,max} },
//                 "cache": {...}, "ssd": {...},
//                 "metrics": {"counters":{},"gauges":{},"histograms":{}},
//                 "timeseries": { "interval_ns", "window_start_ns",
//                                 "truncated", "samples": [...] } } ] }
//
// v2 is a superset of v1: every v1 field is unchanged; v2 adds
// "latency_ns.clamped" and, for runs sampled with REPRO_TIMESERIES_MS, the
// per-interval "timeseries" object (obs/timeseries.hpp). Runs driven with a
// fault plan (RunConfig::fault) additionally carry a "fault" object — the
// reconciling ledger counters plus the healthy/degraded window split:
//   "fault": { <kFaultCounterFields>, "first_fault_s", "healthy_mbps",
//              "degraded_mbps", "degraded_read": {...},
//              "degraded_write": {...} }
// Consumers keyed on the v1 fields keep working against either version.
//
// v3 is a strict superset of v2: every v2 field is unchanged. Multi-tenant
// runs (RunConfig::num_tenants > 0) add a per-tenant array and the adaptive
// controller's epoch counters:
//   "tenants": [ { "tenant", <kTenantFields> } ],
//   "adapt": { "epochs", "rebalances" }
//
// v4 is a strict superset of v3. Runs merged by the sharded engine
// (engine::ParallelEngine) add the deterministic partition shape:
//   "engine": { "domains", "epochs",
//               "per_domain": [ { "ops", "bytes" } ] }
// and the document gains an optional top-level "perf" section with the
// wall-clock side of those runs:
//   "perf": { "shards", "threads",
//             "runs": [ { "bench", "cells", "wall_seconds",
//                         "sim_ops_per_sec",
//                         "per_shard": [ { "ops", "wall_seconds" } ] } ] }
// A bench runs all its cells in one engine job, so "perf" holds one record
// per bench: "cells" counts the runs it reported, and every wall-clock
// figure is the whole job's. (Older documents hold one record per run,
// keyed by "name".)
// Everything under "perf" depends on the execution configuration and host
// load; it is the ONLY part of the document excluded from the engine's
// bit-identical-across-shard-counts contract (tools/repro_report --digest
// hashes the document minus "perf" for exactly this reason).
//
// v5 is a strict superset of v4. Runs with the causal observability layer
// wired add up to three blocks, each only when its feature was active:
//   "provenance": { "flash_bytes", "primary_bytes", "by_cause": {...},
//                   "devices": [ { "device", "bytes", by_cause... } ],
//                   "tenants": [ { "tenant", "bytes", by_cause... } ] }
// (write-provenance ledger; sum over causes == total flash bytes written),
//   "spans": { "rate", "ops_seen", "ops_sampled", "spans", "dropped",
//              "by_name": { <span>: { "count", "total_ns" } } }
// (REPRO_SPAN_SAMPLE op-span tracing aggregate), and
//   "slo": { "policy": {...}, "epochs", "violations", "degraded_epochs",
//            "burn_rate", "breached", "verdicts": [ {...} ] }
// (epoch SLO watchdog verdicts; see obs/slo.hpp and repro_report --slo).
//
// v6 is a strict superset of v5: runs with a background rebuild engine
// attached add the "rebuild" object (hot-spare reconstruction outcome):
//   "rebuild": { <raid::kRebuildOutcomeFields> }
//
// v7 is a strict superset of v6. Runs fronted by the compressed DRAM tier
// (REPRO_TIER_MB > 0) add a "tier" object:
//   "tier": { <tier::kTierStatsFields>, <kTierOccupancyFields> }
// and the provenance "by_cause" map gains "tier_destage" / "tier_demote"
// entries (the map was always open-ended, so v6 consumers keep working).
#pragma once

#include <string>
#include <vector>

#include "workload/runner.hpp"

namespace srcache::workload {

// One run as a JSON object (the element of "runs" above).
std::string run_json(const std::string& bench, const std::string& name,
                     const RunResult& r);

// Wall-clock record of one engine job for the "perf" section. Kept as
// plain values so workload does not depend on the engine library.
struct PerfShard {
  u64 ops = 0;
  double wall_seconds = 0.0;
};
struct PerfRun {
  std::string bench;
  u32 cells = 0;  // runs the job reported
  double wall_seconds = 0.0;
  double sim_ops_per_sec = 0.0;
  std::vector<PerfShard> per_shard;
};

class ReproReport {
 public:
  ReproReport(double scale, double virtual_seconds)
      : scale_(scale), virtual_seconds_(virtual_seconds) {}

  void add(const std::string& bench, const std::string& name,
           const RunResult& r) {
    runs_.push_back(run_json(bench, name, r));
  }

  // Execution configuration for the "perf" section (REPRO_SHARDS /
  // REPRO_THREADS as resolved by the engine). The section is emitted once
  // any perf run was added.
  void set_perf_config(u32 shards, u32 threads) {
    perf_shards_ = shards;
    perf_threads_ = threads;
  }
  void add_perf(PerfRun run) { perf_runs_.push_back(std::move(run)); }

  [[nodiscard]] size_t size() const { return runs_.size(); }
  [[nodiscard]] std::string to_json() const;
  // Atomically-ish rewrites `path` (write temp, rename); returns success.
  [[nodiscard]] bool write_file(const std::string& path) const;

 private:
  double scale_;
  double virtual_seconds_;
  std::vector<std::string> runs_;  // pre-serialized run objects
  u32 perf_shards_ = 0;
  u32 perf_threads_ = 0;
  std::vector<PerfRun> perf_runs_;
};

}  // namespace srcache::workload
