#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace srcache::engine {

namespace {

// Epoch barriers per measurement window.
constexpr sim::SimTime kEpochsPerWindow = 8;

// Fixed pool of workers executing "fn(lane) for every lane" phases. Lanes
// are claimed dynamically — placement is free because domains never share
// state; only the wall-clock a thread charges to a lane depends on it.
// Constructed with 0 threads the pool runs phases inline on the caller.
class LanePool {
 public:
  explicit LanePool(u32 threads) {
    workers_.reserve(threads);
    for (u32 i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker(); });
  }

  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  ~LanePool() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  // Blocks until fn ran for every lane in [0, lanes). A lane's exception
  // lands in errs[lane]; the caller decides which to rethrow.
  void run(u32 lanes, const std::function<void(u32)>& fn,
           std::vector<std::exception_ptr>& errs) {
    if (lanes == 0) return;
    if (workers_.empty()) {
      for (u32 lane = 0; lane < lanes; ++lane) run_lane(lane, fn, errs);
      return;
    }
    std::unique_lock<std::mutex> lk(mu_);
    fn_ = &fn;
    errs_ = &errs;
    lanes_ = lanes;
    next_ = 0;
    pending_ = lanes;
    ++generation_;
    cv_.notify_all();
    done_cv_.wait(lk, [this] { return pending_ == 0; });
    fn_ = nullptr;
    errs_ = nullptr;
  }

 private:
  static void run_lane(u32 lane, const std::function<void(u32)>& fn,
                       std::vector<std::exception_ptr>& errs) {
    try {
      fn(lane);
    } catch (...) {
      errs[lane] = std::current_exception();
    }
  }

  void worker() {
    u64 seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      while (next_ < lanes_) {
        const u32 lane = next_++;
        lk.unlock();
        run_lane(lane, *fn_, *errs_);
        lk.lock();
        if (--pending_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
  u64 generation_ = 0;

  const std::function<void(u32)>* fn_ = nullptr;
  std::vector<std::exception_ptr>* errs_ = nullptr;
  u32 lanes_ = 0;
  u32 next_ = 0;
  u32 pending_ = 0;
};

// Sample-wise merge of per-domain time series. Domains share the window
// duration and sampling interval but not their absolute window anchors, so
// the merged series is re-anchored at 0 and samples are matched by index
// (sample i of every domain covers the same window-relative span).
// Extensive quantities (ops, bytes, gc counters, tenant activity, gauges)
// sum across domains; "util.<resource>" utilizations average over the
// domains reporting the resource — each domain owns its own copy of the
// device array, so the mean is the array-wide utilization.
obs::TimeSeries merge_timeseries(
    const std::vector<workload::RunResult>& parts) {
  obs::TimeSeries out;
  out.interval = parts[0].timeseries.interval;
  out.window_start = 0;
  size_t n = 0;
  for (const workload::RunResult& p : parts) {
    out.truncated = out.truncated || p.timeseries.truncated;
    n = std::max(n, p.timeseries.samples.size());
  }
  if (out.interval <= 0 || n == 0) return out;

  out.samples.resize(n);
  for (size_t i = 0; i < n; ++i) {
    obs::TimeSample& s = out.samples[i];
    std::map<std::string, u32> util_count;
    // Per-sample SSD traffic isn't stored raw, only as io_amplification;
    // reconstruct the numerator per domain to merge the ratio exactly up to
    // the (deterministic, index-ordered) floating-point sum.
    double ssd_blocks = 0.0;
    bool anchored = false;
    for (const workload::RunResult& p : parts) {
      const obs::TimeSeries& ts = p.timeseries;
      if (i >= ts.samples.size()) continue;
      const obs::TimeSample& ps = ts.samples[i];
      if (!anchored) {
        s.start = ps.start - ts.window_start;
        s.end = ps.end - ts.window_start;
        anchored = true;
      }
      s.ops += ps.ops;
      s.bytes += ps.bytes;
      s.app_blocks += ps.app_blocks;
      s.hits += ps.hits;
      s.misses += ps.misses;
      ssd_blocks += ps.io_amplification * static_cast<double>(ps.app_blocks);
      for (const auto& [name, v] : ps.series) {
        s.series[name] += v;
        if (name.starts_with("util.")) util_count[name]++;
      }
    }
    const double secs = sim::to_seconds(s.duration());
    s.throughput_mbps =
        secs > 0.0 ? static_cast<double>(s.bytes) / 1e6 / secs : 0.0;
    s.hit_ratio = ratio_of(s.hits, s.hits + s.misses);
    s.io_amplification =
        s.app_blocks == 0 ? 0.0
                          : ssd_blocks / static_cast<double>(s.app_blocks);
    for (const auto& [name, cnt] : util_count)
      if (cnt > 1) s.series[name] /= static_cast<double>(cnt);
  }
  return out;
}

}  // namespace

workload::RunResult merge_results(
    const std::vector<workload::RunResult>& parts) {
  if (parts.empty())
    throw std::invalid_argument("engine: merge of zero results");
  workload::RunResult m;
  m.seconds = parts[0].seconds;

  for (const workload::RunResult& p : parts) {
    m.ops += p.ops;
    m.bytes += p.bytes;

    add_counters(m.cache, p.cache, cache::kCacheStatsFields);
    add_counters(m.ssd, p.ssd, blockdev::kDeviceStatsFields);

    m.latency.merge_from(p.latency);
    m.metrics.merge_add(p.metrics);
    m.provenance.merge_add(p.provenance);
    m.spans.merge_add(p.spans);

    m.fault.active = m.fault.active || p.fault.active;
    add_counters(m.fault, p.fault, workload::kFaultCounterFields);
    if (p.fault.first_fault_s >= 0.0 &&
        (m.fault.first_fault_s < 0.0 ||
         p.fault.first_fault_s < m.fault.first_fault_s))
      m.fault.first_fault_s = p.fault.first_fault_s;
    m.fault.degraded_bytes += p.fault.degraded_bytes;
    m.fault.degraded_latency.merge_from(p.fault.degraded_latency);

    m.rebuild.active = m.rebuild.active || p.rebuild.active;
    add_counters(m.rebuild, p.rebuild, raid::kRebuildOutcomeFields);
    // Domains degrade in parallel virtual time.
    m.rebuild.degraded_ns =
        std::max(m.rebuild.degraded_ns, p.rebuild.degraded_ns);

    m.tier.active = m.tier.active || p.tier.active;
    add_counters(m.tier, p.tier, tier::kTierStatsFields);
    add_counters(m.tier, p.tier, workload::kTierOccupancyFields);

    if (p.tenants.size() > m.tenants.size()) m.tenants.resize(p.tenants.size());
    for (size_t t = 0; t < p.tenants.size(); ++t)
      add_counters(m.tenants[t], p.tenants[t], workload::kTenantFields);
    // Epoch counts coincide across domains (same window, same epoch length);
    // max keeps the invariant when a domain ran out of ops early.
    m.adapt_epochs = std::max(m.adapt_epochs, p.adapt_epochs);
    m.adapt_rebalances += p.adapt_rebalances;
  }

  workload::summarize(m);
  m.timeseries = merge_timeseries(parts);
  return m;
}

ParallelEngine::ParallelEngine(const EngineConfig& cfg) : cfg_(cfg) {}

void ParallelEngine::add_epoch_hook(EpochHook hook) {
  hooks_.push_back(std::move(hook));
}

EngineResult ParallelEngine::run(u32 num_domains,
                                 const DomainFactory& factory) {
  if (num_domains == 0)
    throw std::invalid_argument("engine: num_domains must be >= 1");
  if (!factory) throw std::invalid_argument("engine: null domain factory");

  const u32 lanes = std::min(std::max(cfg_.shards, u32{1}), num_domains);
  u32 threads = cfg_.threads;
  if (threads == 0)
    threads =
        std::min(lanes, std::max(1u, std::thread::hardware_concurrency()));
  threads = std::min(threads, lanes);

  const auto wall0 = std::chrono::steady_clock::now();

  std::vector<std::unique_ptr<ShardDomain>> domains(num_domains);
  std::vector<double> lane_wall(lanes, 0.0);
  std::vector<std::exception_ptr> errs(lanes);
  LanePool pool(threads > 1 ? threads : 0);

  // Runs lane_fn for every lane across the pool, charges each lane's wall
  // time, and rethrows the lowest failing lane (= lowest failing domain).
  auto phase = [&](const std::function<void(u32)>& lane_fn) {
    std::fill(errs.begin(), errs.end(), nullptr);
    const std::function<void(u32)> timed = [&](u32 lane) {
      const auto t0 = std::chrono::steady_clock::now();
      lane_fn(lane);
      lane_wall[lane] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    };
    pool.run(lanes, timed, errs);
    for (u32 lane = 0; lane < lanes; ++lane)
      if (errs[lane]) std::rethrow_exception(errs[lane]);
  };

  // Build + warm-up + window open, one pass per lane over its domains.
  phase([&](u32 lane) {
    for (u32 d = lane; d < num_domains; d += lanes) {
      auto dom = std::make_unique<ShardDomain>();
      dom->index_ = d;
      dom->setup_ = factory(d, num_domains);
      if (dom->setup_.cache == nullptr)
        throw std::invalid_argument("engine: domain factory returned no cache");
      dom->loop_.emplace(dom->setup_.cache, dom->setup_.ssds,
                         dom->setup_.gens, dom->setup_.cfg);
      dom->loop_->warmup();
      dom->loop_->start();
      domains[d] = std::move(dom);
    }
  });

  const sim::SimTime duration = domains[0]->setup_.cfg.duration;
  if (duration <= 0)
    throw std::invalid_argument("engine: non-positive duration");
  for (const auto& dom : domains) {
    if (dom->setup_.cfg.duration != duration)
      throw std::invalid_argument("engine: domains disagree on duration");
  }
  sim::SimTime epoch_len = duration / kEpochsPerWindow;
  if (epoch_len <= 0) epoch_len = duration;

  // Epoch-barrier loop. Barriers are window-relative virtual times, so each
  // domain advances to its own window_start + rel_end; the pool barrier
  // quiesces every domain before hooks run on this (coordinator) thread.
  u32 epochs = 0;
  for (u32 k = 1;; ++k) {
    const sim::SimTime rel_end = std::min<sim::SimTime>(
        duration, epoch_len * static_cast<sim::SimTime>(k));
    phase([&](u32 lane) {
      for (u32 d = lane; d < num_domains; d += lanes) {
        ShardDomain& dom = *domains[d];
        if (!dom.loop_->finished())
          dom.loop_->run_until(dom.loop_->window_start() + rel_end);
      }
    });
    ++epochs;
    EpochView view;
    view.epoch = epochs - 1;
    view.rel_end = rel_end;
    view.domains = &domains;
    for (const EpochHook& h : hooks_) h(view);
    bool all_done = true;
    for (const auto& dom : domains)
      all_done = all_done && dom->loop_->finished();
    // Early break is deterministic: finishing is a property of each
    // domain's simulation and the (fixed) barrier schedule.
    if (all_done || rel_end >= duration) break;
  }

  std::vector<workload::RunResult> parts(num_domains);
  phase([&](u32 lane) {
    for (u32 d = lane; d < num_domains; d += lanes)
      parts[d] = domains[d]->loop_->finish();
  });

  EngineResult out;
  out.merged = merge_results(parts);
  out.merged.engine.active = true;
  out.merged.engine.domains = num_domains;
  out.merged.engine.epochs = epochs;
  out.merged.engine.per_domain.reserve(num_domains);
  for (const workload::RunResult& p : parts)
    out.merged.engine.per_domain.push_back({p.ops, p.bytes});

  out.domains = num_domains;
  out.shards = lanes;
  out.threads = threads;
  out.epochs = epochs;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  out.sim_ops_per_sec =
      out.wall_seconds > 0.0
          ? static_cast<double>(out.merged.ops) / out.wall_seconds
          : 0.0;
  out.per_shard.resize(lanes);
  for (u32 lane = 0; lane < lanes; ++lane) {
    ShardPerf& sp = out.per_shard[lane];
    sp.wall_seconds = lane_wall[lane];
    for (u32 d = lane; d < num_domains; d += lanes) {
      sp.domains++;
      sp.ops += parts[d].ops;
    }
  }
  out.per_domain = std::move(parts);
  return out;
}

}  // namespace srcache::engine
