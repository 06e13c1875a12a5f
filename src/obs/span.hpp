// OpSpan tracing: a per-op causal span tree with deterministic head-based
// sampling, plus an optional bounded flat timeline of what every layer did.
//
// SpanTracer records *trees*: one root span per sampled application op
// (ingress), with nested child spans opened by every layer the op touches —
// cache submit, segment fill, destage, RAID stripe ops, SSD/NAND phases,
// backend fetch. Components hold a SpanTracer* (nullptr = off) and guard
// instrumentation with sampling(), so unsampled ops cost one branch per
// would-be span.
//
// The timeline (timeline_cap > 0) records flat events on fixed lanes —
// request lifetimes, segment seals, SG reclaims, SSD-internal GC, flushes,
// failures and repairs — exportable on one synchronized axis together with
// the span trees as Chrome trace-event JSON (chrome://tracing, Perfetto).
// Event names must be string literals (static lifetime). Once full the
// newest events are dropped (the retained prefix stays intact) and counted.
//
// Determinism contract: the sampling decision consumes exactly one
// RNG draw per *measured* op, in op issue order, from a generator seeded by
// the per-domain seed stream — so which ops are sampled, the span trees, and
// the aggregated SpanOutcome are bit-identical across REPRO_SHARDS /
// REPRO_THREADS. SpanOutcome holds only exact integers (plus the configured
// rate) and merges with integer sums in domain-index order. The timeline
// never draws from the sampling RNG, never counts against the span record
// cap and never enters the SpanOutcome.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace srcache::obs {

inline constexpr u32 kNoSpan = 0xFFFFFFFF;

// Fixed timeline lanes (Chrome "tid") used by the stock wiring in the bench
// harness and tests. Anything fits — lanes just group timeline rows.
enum TimelineLane : u32 {
  kLaneApp = 0,      // application requests (workload::ClosedLoop)
  kLaneSrc = 1,      // SRC cache internals
  kLanePrimary = 2,  // iSCSI primary storage
  kLaneSsdBase = 8,  // SSD i uses lane kLaneSsdBase + i
};

// One flat timeline event; end == start renders as an instant.
struct TimelineEvent {
  const char* name = "";  // static-lifetime string literal
  u32 lane = 0;
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  u64 arg = 0;            // one free payload slot (lba, count, ...)
};

struct SpanRecord {
  const char* name = "";   // static-lifetime string literal
  u32 trace_id = 0;        // sequential id of the sampled op (per tracer)
  u32 parent = kNoSpan;    // index of the parent record; kNoSpan for roots
  u32 depth = 0;
  u32 dev = 0;             // free slot: device index for per-device spans
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  u64 arg = 0;             // free slot: blocks, lba, ...
};

// Exact aggregate of one tracer's sampled spans; what lands in REPRO_JSON.
struct SpanOutcome {
  bool active = false;   // sample rate > 0 (a rate-0 tracer is timeline-only)
  double rate = 0.0;     // configured sample rate (identical across domains)
  u64 ops_seen = 0;      // measured ops offered to the sampler
  u64 ops_sampled = 0;   // ops whose head draw selected them
  u64 spans = 0;         // span records retained
  u64 span_dropped = 0;  // spans lost to the record cap
  struct NameAgg {
    u64 count = 0;
    u64 total_ns = 0;
  };
  std::map<std::string, NameAgg> by_name;

  void merge_add(const SpanOutcome& o);
};

class SpanTracer {
 public:
  // `rate` in [0, 1] is the head-sampling probability; `seed` must come from
  // the per-domain seed stream; `cap` bounds retained span records;
  // `timeline_cap` bounds retained timeline events (0 = no timeline).
  SpanTracer(u64 seed, double rate, size_t cap = 1 << 16,
             size_t timeline_cap = 0);

  // Opens the root span for one measured op. Consumes exactly one sampling
  // draw per call. Returns true when the op is sampled (spans nest until
  // end_op); callers must call end_op iff this returned true.
  bool begin_op(const char* name, sim::SimTime start);
  void end_op(sim::SimTime end, u64 arg = 0);

  // True while inside a sampled op — the instrumentation guard.
  [[nodiscard]] bool sampling() const { return !stack_.empty(); }

  // Child span under the innermost open span. No-op (returns kNoSpan)
  // outside a sampled op or past the cap; end_span(kNoSpan, ...) is a no-op.
  u32 begin_span(const char* name, sim::SimTime start, u32 dev = 0);
  void end_span(u32 id, sim::SimTime end, u64 arg = 0);

  // Timeline event [start, end) on `lane`; end <= start records an instant
  // at `start`. Independent of sampling; a no-op without a timeline.
  void event(const char* name, u32 lane, sim::SimTime start, sim::SimTime end,
             u64 arg = 0);

  [[nodiscard]] const std::vector<SpanRecord>& records() const {
    return records_;
  }
  // Retained timeline events in recording order.
  [[nodiscard]] const std::vector<TimelineEvent>& timeline() const {
    return timeline_;
  }
  // Timeline events not retained because the timeline was full.
  [[nodiscard]] u64 timeline_dropped() const { return timeline_dropped_; }
  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] SpanOutcome outcome() const;

  // Chrome trace-event document: with a timeline, a "trace.dropped" counter
  // record and the timeline ('X' slices and 'i' instants, sorted by start);
  // then the span trees as nested 'X' slices (one lane group per trace id) plus
  // flow arrows ('s'/'f') tying each parent to its children.
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  common::Xoshiro256 rng_;
  double rate_;
  size_t cap_;
  std::vector<SpanRecord> records_;
  std::vector<u32> stack_;  // open span record indices, root first
  u64 ops_seen_ = 0;
  u64 ops_sampled_ = 0;
  u64 span_dropped_ = 0;
  u32 next_trace_ = 0;
  size_t timeline_cap_;
  std::vector<TimelineEvent> timeline_;  // retained prefix, recording order
  u64 timeline_dropped_ = 0;
};

}  // namespace srcache::obs
