#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace srcache::obs {

void MetricsRegistry::counter_fn(const std::string& name,
                                 std::function<u64()> fn) {
  counter_fns_[name] = std::move(fn);
}

void MetricsRegistry::gauge_fn(const std::string& name,
                               std::function<double()> fn) {
  gauge_fns_[name] = std::move(fn);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  for (const auto& [name, fn] : counter_fns_) s.counters[name] = fn();
  for (const auto& [name, fn] : gauge_fns_) s.gauges[name] = fn();
  return s;
}

MetricsSnapshot MetricsSnapshot::delta_since(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot d;
  for (const auto& [name, v] : counters) {
    auto it = earlier.counters.find(name);
    const u64 before = it == earlier.counters.end() ? 0 : it->second;
    d.counters[name] = v >= before ? v - before : 0;
  }
  d.gauges = gauges;  // instantaneous: the window ends at `this`
  return d;
}

void MetricsSnapshot::merge_add(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
}

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : counters) w.kv(name, v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : gauges) w.kv(name, v);
  w.end_object();
  w.key("histograms").begin_object().end_object();
  w.end_object();
  return w.take();
}

}  // namespace srcache::obs
