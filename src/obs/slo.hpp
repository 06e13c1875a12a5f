// Epoch SLO watchdog: per-epoch service-level verdicts over a running
// experiment, designed to run as an engine barrier hook.
//
// At every epoch barrier the engine's domains are quiescent; the hook feeds
// the watchdog the *cumulative* merged state (ops, bytes, read/write latency
// histograms, degraded-domain count) and the watchdog takes exact window
// deltas itself (Histogram::minus is bucket-exact), evaluates the policy
// (min throughput, max read/write p99, tolerated degraded domains), and
// appends a structured verdict. The outcome — per-epoch verdicts, violation
// and degraded counts, and the error-budget burn rate — lands in REPRO_JSON
// ("slo" block) and `repro_report --slo`.
//
// Determinism: verdict inputs are exact integers/bucket counts computed at
// barriers from merged domain state, and the derived doubles are pure
// functions of them, so the outcome is bit-identical across REPRO_THREADS.
#pragma once

#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace srcache::obs {

struct SloPolicy {
  double min_throughput_mbps = 0.0;  // 0 = unchecked
  double max_read_p99_ms = 0.0;      // 0 = unchecked
  double max_write_p99_ms = 0.0;     // 0 = unchecked
  // Degraded domains (>= 1 failed device) tolerated per epoch; an epoch
  // exceeding this is a violation. Negative = unchecked.
  i32 max_degraded_domains = -1;
  // Fraction of epochs allowed to violate before the SLO counts as
  // breached; burn_rate = (violations/epochs)/error_budget.
  double error_budget = 0.1;

  [[nodiscard]] bool any() const {
    return min_throughput_mbps > 0.0 || max_read_p99_ms > 0.0 ||
           max_write_p99_ms > 0.0 || max_degraded_domains >= 0;
  }
};

struct SloVerdict {
  u32 epoch = 0;
  double seconds = 0.0;  // epoch window length (virtual)
  u64 ops = 0;
  u64 bytes = 0;
  double throughput_mbps = 0.0;
  double read_p99_ms = 0.0;
  double write_p99_ms = 0.0;
  u32 degraded_domains = 0;
  bool ok = true;
  std::string violated;  // comma list: "throughput,read_p99,..."
};

struct SloOutcome {
  bool active = false;
  SloPolicy policy;
  u32 epochs = 0;
  u32 violations = 0;
  u32 degraded_epochs = 0;  // epochs with any degraded domain
  double burn_rate = 0.0;
  bool breached = false;  // burn_rate > 1
  std::vector<SloVerdict> verdicts;
};

class SloWatchdog {
 public:
  explicit SloWatchdog(const SloPolicy& policy) : policy_(policy) {}

  // One barrier's cumulative merged state; `rel_end` is the barrier's
  // window-relative time (strictly increasing). The watchdog deltas against
  // the previous call.
  void observe_epoch(sim::SimTime rel_end, u64 cum_ops, u64 cum_bytes,
                     const common::Histogram& cum_read_lat,
                     const common::Histogram& cum_write_lat,
                     u32 degraded_domains);

  [[nodiscard]] SloOutcome outcome() const;

 private:
  SloPolicy policy_;
  sim::SimTime prev_rel_ = 0;
  u64 prev_ops_ = 0;
  u64 prev_bytes_ = 0;
  common::Histogram prev_read_;
  common::Histogram prev_write_;
  std::vector<SloVerdict> verdicts_;
};

}  // namespace srcache::obs
