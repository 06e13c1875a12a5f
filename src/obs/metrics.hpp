// MetricsRegistry: named counters and gauges with hierarchical dotted
// scopes ("ssd.0.gc.erases", "src.flushes", "hdd.link_busy_ns").
//
// Design rules, driven by the bench harness's overhead budget:
//  * Pull-only. Components that already keep their own counters
//    (DeviceStats, FtlStats, SrcCache::ExtraStats) register *callbacks* that
//    read those counters at snapshot time — the hot path is untouched,
//    registering costs nothing per request, and an unregistered component
//    pays zero. Latency distributions live in obs::LatencyRecorder.
//  * Snapshot/delta. A MetricsSnapshot captures every metric's value; the
//    delta of two snapshots gives a clean measurement window (counters
//    subtract; gauges are point-in-time and keep the later value).
//    workload::ClosedLoop snapshots after warm-up so run metrics exclude
//    cache-fill traffic.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "common/types.hpp"

namespace srcache::obs {

// Point-in-time capture of a registry. Counters are cumulative and subtract
// cleanly; gauges are instantaneous.
struct MetricsSnapshot {
  std::map<std::string, u64> counters;
  std::map<std::string, double> gauges;

  // Metrics recorded between `earlier` and this snapshot. Metrics absent
  // from `earlier` (registered mid-run) are taken whole.
  [[nodiscard]] MetricsSnapshot delta_since(
      const MetricsSnapshot& earlier) const;

  // Folds another snapshot in: counters and gauges add.
  // Used by the engine to aggregate per-shard-domain registries, where the
  // domains are replicas of the same stack and name-wise sums are the fleet
  // totals (gauges included: units, occupancies, backlogs).
  void merge_add(const MetricsSnapshot& other);

  // {"counters":{name:value,...},"gauges":{...},"histograms":{}} — the
  // empty "histograms" object keeps the REPRO_JSON schema stable.
  [[nodiscard]] std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The callback is evaluated at snapshot time and must stay
  // valid for the registry's lifetime (re-registering a name replaces it).
  void counter_fn(const std::string& name, std::function<u64()> fn);
  void gauge_fn(const std::string& name, std::function<double()> fn);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, std::function<u64()>> counter_fns_;
  std::map<std::string, std::function<double()>> gauge_fns_;
};

// Name-prefixing view over a registry: Scope(reg, "ssd.0").counter_fn(
// "gc.erases", fn) registers "ssd.0.gc.erases". Copyable, cheap, does not
// own the registry.
class Scope {
 public:
  Scope(MetricsRegistry& reg, std::string prefix)
      : reg_(&reg), prefix_(std::move(prefix)) {}

  [[nodiscard]] Scope scope(const std::string& sub) const {
    return Scope(*reg_, join(sub));
  }

  void counter_fn(const std::string& name, std::function<u64()> fn) const {
    reg_->counter_fn(join(name), std::move(fn));
  }
  void gauge_fn(const std::string& name, std::function<double()> fn) const {
    reg_->gauge_fn(join(name), std::move(fn));
  }

  [[nodiscard]] const std::string& prefix() const { return prefix_; }
  [[nodiscard]] MetricsRegistry& registry() const { return *reg_; }

 private:
  [[nodiscard]] std::string join(const std::string& name) const {
    return prefix_.empty() ? name : prefix_ + "." + name;
  }

  MetricsRegistry* reg_;
  std::string prefix_;
};

}  // namespace srcache::obs
