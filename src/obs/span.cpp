#include "obs/span.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace srcache::obs {

void SpanOutcome::merge_add(const SpanOutcome& o) {
  active = active || o.active;
  rate = std::max(rate, o.rate);
  ops_seen += o.ops_seen;
  ops_sampled += o.ops_sampled;
  spans += o.spans;
  span_dropped += o.span_dropped;
  for (const auto& [name, agg] : o.by_name) {
    NameAgg& mine = by_name[name];
    mine.count += agg.count;
    mine.total_ns += agg.total_ns;
  }
}

SpanTracer::SpanTracer(u64 seed, double rate, size_t cap, size_t timeline_cap)
    : rng_(seed),
      rate_(rate),
      cap_(cap == 0 ? 1 : cap),
      timeline_cap_(timeline_cap) {
  timeline_.reserve(timeline_cap_);
}

bool SpanTracer::begin_op(const char* name, sim::SimTime start) {
  ++ops_seen_;
  // Exactly one draw per measured op, sampled or not: the draw sequence
  // depends only on op order, never on instrumentation below.
  const bool pick = rng_.chance(rate_);
  if (!pick) return false;
  if (records_.size() >= cap_) {
    ++span_dropped_;
    return false;
  }
  ++ops_sampled_;
  SpanRecord r;
  r.name = name;
  r.trace_id = next_trace_++;
  r.start = start;
  records_.push_back(r);
  stack_.push_back(static_cast<u32>(records_.size() - 1));
  return true;
}

void SpanTracer::end_op(sim::SimTime end, u64 arg) {
  // Close every span still open in this op (children a layer forgot to end
  // inherit the op's completion time), the root last.
  while (!stack_.empty()) {
    SpanRecord& r = records_[stack_.back()];
    if (r.end < r.start) r.end = end;
    if (r.end == 0) r.end = end;
    if (stack_.size() == 1) r.arg = arg;
    stack_.pop_back();
  }
}

u32 SpanTracer::begin_span(const char* name, sim::SimTime start, u32 dev) {
  if (stack_.empty()) return kNoSpan;
  if (records_.size() >= cap_) {
    ++span_dropped_;
    return kNoSpan;
  }
  const u32 parent = stack_.back();
  SpanRecord r;
  r.name = name;
  r.trace_id = records_[parent].trace_id;
  r.parent = parent;
  r.depth = records_[parent].depth + 1;
  r.dev = dev;
  r.start = start;
  records_.push_back(r);
  stack_.push_back(static_cast<u32>(records_.size() - 1));
  return static_cast<u32>(records_.size() - 1);
}

void SpanTracer::end_span(u32 id, sim::SimTime end, u64 arg) {
  if (id == kNoSpan) return;
  SpanRecord& r = records_[id];
  r.end = end > r.start ? end : r.start;
  r.arg = arg;
  // Strictly nested instrumentation pops LIFO; tolerate out-of-order ends.
  const auto it = std::find(stack_.begin(), stack_.end(), id);
  if (it != stack_.end()) stack_.erase(it);
}

void SpanTracer::event(const char* name, u32 lane, sim::SimTime start,
                       sim::SimTime end, u64 arg) {
  if (timeline_cap_ == 0) return;
  // Drop-newest: the retained prefix stays contiguous from the start of the
  // run, and the loss is counted instead of silently rewriting history.
  if (timeline_.size() >= timeline_cap_) {
    ++timeline_dropped_;
    return;
  }
  timeline_.push_back({name, lane, start, end > start ? end : start, arg});
}

SpanOutcome SpanTracer::outcome() const {
  SpanOutcome o;
  o.active = rate_ > 0.0;
  o.rate = rate_;
  o.ops_seen = ops_seen_;
  o.ops_sampled = ops_sampled_;
  o.spans = records_.size();
  o.span_dropped = span_dropped_;
  for (const SpanRecord& r : records_) {
    SpanOutcome::NameAgg& agg = o.by_name[r.name];
    agg.count += 1;
    agg.total_ns += r.end > r.start ? static_cast<u64>(r.end - r.start) : 0;
  }
  return o;
}

std::string SpanTracer::to_chrome_json() const {
  JsonWriter w;
  w.begin_array();
  if (timeline_cap_ > 0) {
    // The drop count travels with the timeline it truncates.
    w.begin_object();
    w.kv("name", "trace.dropped");
    w.kv("ph", "C");
    w.kv("ts", 0.0);
    w.kv("pid", u64{0});
    w.key("args").begin_object().kv("dropped", timeline_dropped_).end_object();
    w.end_object();
    // Recording order is per emitter but emitters interleave; a stable sort
    // by start makes every lane chronological as viewers expect.
    std::vector<TimelineEvent> evs = timeline_;
    std::stable_sort(evs.begin(), evs.end(),
                     [](const TimelineEvent& a, const TimelineEvent& b) {
                       return a.start < b.start;
                     });
    for (const TimelineEvent& e : evs) {
      w.begin_object();
      w.kv("name", e.name);
      w.kv("ph", e.end > e.start ? "X" : "i");
      w.kv("ts", sim::to_us(e.start));
      w.kv("pid", u64{0});
      w.kv("tid", e.lane);
      if (e.end > e.start) w.kv("dur", sim::to_us(e.end - e.start));
      else w.kv("s", "t");  // instant scope: thread
      w.key("args").begin_object().kv("v", e.arg).end_object();
      w.end_object();
    }
  }
  // Lane layout: each sampled trace renders its whole tree on one lane
  // (nesting by containment); four lanes keep concurrent traces apart.
  constexpr u32 kSpanLaneBase = 100;
  constexpr u32 kSpanLanes = 4;
  const auto lane = [](const SpanRecord& r) {
    return kSpanLaneBase + (r.trace_id % kSpanLanes);
  };
  for (size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    w.begin_object();
    w.kv("name", r.name);
    w.kv("ph", "X");
    w.kv("ts", sim::to_us(r.start));
    w.kv("dur", sim::to_us(r.end > r.start ? r.end - r.start : 0));
    w.kv("pid", u64{0});
    w.kv("tid", lane(r));
    w.key("args").begin_object();
    w.kv("trace", r.trace_id);
    w.kv("depth", r.depth);
    w.kv("dev", r.dev);
    w.kv("v", r.arg);
    w.end_object();
    w.end_object();
    if (r.parent == kNoSpan) continue;
    // Flow arrow parent -> child: same cat+id+name pair links the two.
    const u64 flow_id = (static_cast<u64>(r.trace_id) << 24) | i;
    const SpanRecord& p = records_[r.parent];
    w.begin_object();
    w.kv("name", r.name);
    w.kv("cat", "span");
    w.kv("ph", "s");
    w.kv("id", flow_id);
    w.kv("ts", sim::to_us(r.start));
    w.kv("pid", u64{0});
    w.kv("tid", lane(p));
    w.end_object();
    w.begin_object();
    w.kv("name", r.name);
    w.kv("cat", "span");
    w.kv("ph", "f");
    w.kv("bp", "e");
    w.kv("id", flow_id);
    w.kv("ts", sim::to_us(r.start));
    w.kv("pid", u64{0});
    w.kv("tid", lane(r));
    w.end_object();
  }
  w.end_array();
  return w.take();
}

}  // namespace srcache::obs
