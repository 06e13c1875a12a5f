#include "workload/report.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace srcache::workload {

namespace {

void latency_summary(obs::JsonWriter& w, const char* key,
                     const obs::LatencySummary& s) {
  w.key(key).begin_object();
  w.kv("count", s.count);
  w.kv("mean", s.mean);
  w.kv("p50", s.p50);
  w.kv("p95", s.p95);
  w.kv("p99", s.p99);
  w.kv("p999", s.p999);
  w.kv("max", s.max);
  w.end_object();
}

}  // namespace

std::string run_json(const std::string& bench, const std::string& name,
                     const RunResult& r) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", bench);
  w.kv("name", name);
  w.kv("seconds", r.seconds);
  w.kv("ops", r.ops);
  w.kv("bytes", r.bytes);
  w.kv("throughput_mbps", r.throughput_mbps);
  w.kv("io_amplification", r.io_amplification);
  w.kv("hit_ratio", r.hit_ratio);

  w.key("latency_ns").begin_object();
  w.kv("clamped", r.latency_clamped);
  latency_summary(w, "read", r.read_lat);
  latency_summary(w, "write", r.write_lat);
  for (int c = 0; c < obs::kNumReqClasses; ++c) {
    latency_summary(w, obs::to_string(static_cast<obs::ReqClass>(c)),
                    r.class_lat[static_cast<size_t>(c)]);
  }
  w.end_object();

  w.key("cache").begin_object();
  emit_counters(w, r.cache, cache::kCacheStatsFields);
  w.end_object();

  w.key("ssd").begin_object();
  emit_counters(w, r.ssd, blockdev::kDeviceStatsFields);
  w.end_object();

  if (r.fault.active) {
    w.key("fault").begin_object();
    emit_counters(w, r.fault, kFaultCounterFields);
    w.kv("first_fault_s", r.fault.first_fault_s);
    w.kv("healthy_mbps", r.fault.healthy_mbps);
    w.kv("degraded_mbps", r.fault.degraded_mbps);
    latency_summary(w, "degraded_read", r.fault.degraded_read_lat);
    latency_summary(w, "degraded_write", r.fault.degraded_write_lat);
    w.end_object();
  }

  // v6: background-rebuild outcome, emitted only when a RebuildManager was
  // attached so v5 documents' shapes stay strict subsets.
  if (r.rebuild.active) {
    w.key("rebuild").begin_object();
    emit_counters(w, r.rebuild, raid::kRebuildOutcomeFields);
    w.end_object();
  }

  // v7: compressed-DRAM-tier outcome, emitted only when a tier was attached
  // so v6 documents' shapes stay strict subsets.
  if (r.tier.active) {
    w.key("tier").begin_object();
    emit_counters(w, r.tier, tier::kTierStatsFields);
    emit_counters(w, r.tier, kTierOccupancyFields);
    w.end_object();
  }

  // v5: causal-observability blocks. Each is emitted only when its feature
  // was wired for the run, keeping older documents' shapes as strict subsets.
  if (!r.provenance.empty()) w.key("provenance").raw(r.provenance.to_json());

  if (r.spans.active) {
    w.key("spans").begin_object();
    w.kv("rate", r.spans.rate);
    w.kv("ops_seen", r.spans.ops_seen);
    w.kv("ops_sampled", r.spans.ops_sampled);
    w.kv("spans", r.spans.spans);
    w.kv("dropped", r.spans.span_dropped);
    w.key("by_name").begin_object();
    for (const auto& [sname, agg] : r.spans.by_name) {
      w.key(sname).begin_object();
      w.kv("count", agg.count);
      w.kv("total_ns", agg.total_ns);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }

  if (r.slo.active) {
    w.key("slo").begin_object();
    w.key("policy").begin_object();
    w.kv("min_throughput_mbps", r.slo.policy.min_throughput_mbps);
    w.kv("max_read_p99_ms", r.slo.policy.max_read_p99_ms);
    w.kv("max_write_p99_ms", r.slo.policy.max_write_p99_ms);
    w.kv("max_degraded_domains",
         static_cast<i64>(r.slo.policy.max_degraded_domains));
    w.kv("error_budget", r.slo.policy.error_budget);
    w.end_object();
    w.kv("epochs", static_cast<u64>(r.slo.epochs));
    w.kv("violations", static_cast<u64>(r.slo.violations));
    w.kv("degraded_epochs", static_cast<u64>(r.slo.degraded_epochs));
    w.kv("burn_rate", r.slo.burn_rate);
    w.kv("breached", r.slo.breached);
    w.key("verdicts").begin_array();
    for (const obs::SloVerdict& v : r.slo.verdicts) {
      w.begin_object();
      w.kv("epoch", static_cast<u64>(v.epoch));
      w.kv("seconds", v.seconds);
      w.kv("ops", v.ops);
      w.kv("bytes", v.bytes);
      w.kv("throughput_mbps", v.throughput_mbps);
      w.kv("read_p99_ms", v.read_p99_ms);
      w.kv("write_p99_ms", v.write_p99_ms);
      w.kv("degraded_domains", static_cast<u64>(v.degraded_domains));
      w.kv("ok", v.ok);
      w.kv("violated", v.violated);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  if (!r.tenants.empty()) {
    w.key("tenants").begin_array();
    for (size_t t = 0; t < r.tenants.size(); ++t) {
      w.begin_object();
      w.kv("tenant", static_cast<u64>(t));
      emit_counters(w, r.tenants[t], kTenantFields);
      w.end_object();
    }
    w.end_array();
    w.key("adapt").begin_object();
    w.kv("epochs", static_cast<u64>(r.adapt_epochs));
    w.kv("rebalances", static_cast<u64>(r.adapt_rebalances));
    w.end_object();
  }

  // Deterministic shape of an engine-merged run. Wall-clock data lives in
  // the document-level "perf" section, never here (see report.hpp).
  if (r.engine.active) {
    w.key("engine").begin_object();
    w.kv("domains", static_cast<u64>(r.engine.domains));
    w.kv("epochs", static_cast<u64>(r.engine.epochs));
    w.key("per_domain").begin_array();
    for (const auto& d : r.engine.per_domain) {
      w.begin_object();
      w.kv("ops", d.ops);
      w.kv("bytes", d.bytes);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.key("metrics").raw(r.metrics.to_json());
  if (!r.timeseries.empty()) w.key("timeseries").raw(r.timeseries.to_json());
  w.end_object();
  return w.take();
}

std::string ReproReport::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "srcache-repro-v7");
  w.kv("scale", scale_);
  w.kv("virtual_seconds", virtual_seconds_);
  w.key("runs").begin_array();
  for (const std::string& run : runs_) w.raw(run);
  w.end_array();
  if (!perf_runs_.empty()) {
    w.key("perf").begin_object();
    w.kv("shards", static_cast<u64>(perf_shards_));
    w.kv("threads", static_cast<u64>(perf_threads_));
    w.key("runs").begin_array();
    for (const PerfRun& p : perf_runs_) {
      w.begin_object();
      w.kv("bench", p.bench);
      w.kv("cells", static_cast<u64>(p.cells));
      w.kv("wall_seconds", p.wall_seconds);
      w.kv("sim_ops_per_sec", p.sim_ops_per_sec);
      w.key("per_shard").begin_array();
      for (const PerfShard& s : p.per_shard) {
        w.begin_object();
        w.kv("ops", s.ops);
        w.kv("wall_seconds", s.wall_seconds);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  return w.take();
}

bool ReproReport::write_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace srcache::workload
