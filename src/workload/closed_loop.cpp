#include "workload/closed_loop.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace srcache::workload {

namespace {

// The SSD window sums only read/write ops and blocks over the cache SSDs, so
// RunResult::ssd reports flushes and trims as 0 (ROADMAP item 9, "the SSD
// window fix"; perfbench's fingerprints pin the zeros, so the fix waits for
// a benchmark change).
constexpr auto kSsdWindowFields =
    std::span(blockdev::kDeviceStatsFields).first<4>();

}  // namespace

ClosedLoop::ClosedLoop(cache::CacheDevice* cache,
                       std::vector<blockdev::BlockDevice*> ssds,
                       const std::vector<Generator*>& gens,
                       const RunConfig& cfg)
    : cache_(cache),
      ssds_(std::move(ssds)),
      gens_(gens),
      cfg_(cfg),
      sampler_(cfg.registry, cfg.timeseries_interval) {
  if (gens_.empty()) throw std::invalid_argument("ClosedLoop: no generators");
  const size_t streams_per_gen =
      static_cast<size_t>(cfg_.threads_per_gen) *
      static_cast<size_t>(std::max(1, cfg_.iodepth));
  sim::SimTime t0 = 0;
  for (size_t g = 0; g < gens_.size(); ++g) {
    for (size_t s = 0; s < streams_per_gen; ++s) {
      heap_.emplace(t0, g);
      t0 += 100;  // stagger initial issues slightly
    }
  }
  res_.tenants.resize(cfg_.num_tenants);
}

// `measure` gates latency/trace recording so the warm-up phase stays out
// of the histograms. Classification reads the cache's own hit counters
// around the submit — no extra work on the cache's hot path, no per-
// request allocation here (histograms are preallocated).
u64 ClosedLoop::issue(sim::SimTime now, size_t g, bool measure) {
  const Op op = gens_[g]->next();
  if (cfg_.adapt != nullptr) cfg_.adapt->observe(op.tenant, op.lba, op.nblocks);
  cache::AppRequest req;
  req.now = now;
  req.is_write = op.is_write;
  req.lba = op.lba;
  req.nblocks = op.nblocks;
  req.tenant = op.tenant;
  req.comp_pct = op.comp_pct;
  u64 miss_before = 0;
  if (measure) {
    miss_before = op.is_write ? cache_->stats().write_new_blocks
                              : cache_->stats().read_miss_blocks;
  }
  // Root op-span: opened before the submit so component spans underneath
  // attach as children; the sampling draw happens on every measured op in
  // issue order, keeping the tracer's RNG stream shard-deterministic.
  const bool op_sampled =
      measure && cfg_.spans != nullptr &&
      cfg_.spans->begin_op(op.is_write ? "op.write" : "op.read", now);
  const sim::SimTime done = cache_->submit(req);
  if (op_sampled) cfg_.spans->end_op(done, op.nblocks);
  if (done < now) throw std::logic_error("ClosedLoop: completion before issue");
  if (measure) {
    const u64 miss_after = op.is_write ? cache_->stats().write_new_blocks
                                       : cache_->stats().read_miss_blocks;
    const bool hit = miss_after == miss_before;
    if (!res_.tenants.empty()) {
      const size_t t = std::min<size_t>(op.tenant, res_.tenants.size() - 1);
      TenantOutcome& to = res_.tenants[t];
      to.ops++;
      to.bytes += blocks_to_bytes(op.nblocks);
      const u64 missed = std::min<u64>(miss_after - miss_before, op.nblocks);
      to.miss_blocks += missed;
      to.hit_blocks += op.nblocks - missed;
    }
    res_.latency.record(obs::classify(op.is_write, hit), done - now);
    // Degraded-window accounting: everything issued at or after the first
    // fired fault event is recorded separately so the failure-handling cost
    // (§4.3) is visible next to the healthy baseline.
    if (cfg_.fault != nullptr && cfg_.fault->events_fired() > 0) {
      res_.fault.degraded_latency.record(obs::classify(op.is_write, hit),
                                         done - now);
      res_.fault.degraded_bytes += blocks_to_bytes(op.nblocks);
    }
    sampler_.record(now, op.is_write, hit, op.nblocks,
                    blocks_to_bytes(op.nblocks));
    if (cfg_.spans != nullptr) {
      cfg_.spans->event(op.is_write ? "req.write" : "req.read", obs::kLaneApp,
                        now, done, op.nblocks);
    }
  }
  heap_.emplace(done, g);
  return blocks_to_bytes(op.nblocks);
}

void ClosedLoop::warmup() {
  u64 warmed = 0;
  while (warmed < cfg_.warmup_bytes && !heap_.empty()) {
    const auto [now, g] = heap_.top();
    heap_.pop();
    warmed += issue(now, g, /*measure=*/false);
  }
}

void ClosedLoop::start() {
  // Measurement window starts at the next event after warm-up.
  start_ = heap_.empty() ? 0 : heap_.top().first;
  measuring_ = true;

  for (auto* d : ssds_)
    add_counters(ssd_before_, d->stats(), kSsdWindowFields);
  cache_before_ = cache_->stats();
  if (cfg_.registry != nullptr) metrics_before_ = cfg_.registry->snapshot();
  if (cfg_.provenance != nullptr) prov_before_ = *cfg_.provenance;
  if (cfg_.tier != nullptr) tier_before_ = cfg_.tier->tier_stats();
  sampler_.start(start_);
  // Fault-plan triggers are relative to the measurement window ("2s in",
  // "ops:1000"), so the injector is anchored and advanced only inside it.
  if (cfg_.fault != nullptr) cfg_.fault->set_epoch(start_);
  // Adaptive partition epochs are anchored the same way: warm-up traffic
  // profiles the ghost caches, but epoch boundaries tick inside the window.
  if (cfg_.adapt != nullptr) cfg_.adapt->set_epoch_start(start_);
}

bool ClosedLoop::run_until(sim::SimTime until) {
  if (!measuring_) throw std::logic_error("ClosedLoop: run before start()");
  const sim::SimTime end = window_end();
  while (!heap_.empty()) {
    const auto [now, g] = heap_.top();
    if (now >= end) {
      done_ = true;
      break;
    }
    if (cfg_.max_ops != 0 && res_.ops >= cfg_.max_ops) {
      done_ = true;
      break;
    }
    if (now >= until) return true;  // barrier reached, more work pending
    heap_.pop();
    if (cfg_.fault != nullptr) cfg_.fault->advance(now, res_.ops);
    // Background reconstruction interleaves at request granularity: the
    // pump is monotone and idempotent in `now`, so per-op pumping here and
    // per-epoch pumping in the engine compose without double-counting.
    if (cfg_.rebuild != nullptr) cfg_.rebuild->pump(now);
    if (cfg_.adapt != nullptr && cfg_.adapt->epoch_due(now))
      cfg_.adapt->run_epoch(now);
    res_.bytes += issue(now, g, /*measure=*/true);
    res_.ops++;
  }
  done_ = done_ || heap_.empty();
  return !done_;
}

sim::SimTime ClosedLoop::next_event() const {
  return heap_.empty() ? window_end() : heap_.top().first;
}

RunResult ClosedLoop::finish() {
  // Close out the sampled window at the nominal end: trailing zero-request
  // intervals (op budget exhausted, streams drained) are real idle time.
  sampler_.finish(window_end());
  res_.timeseries = sampler_.take();
  res_.seconds = sim::to_seconds(cfg_.duration);

  for (auto* d : ssds_) add_counters(res_.ssd, d->stats(), kSsdWindowFields);
  sub_counters(res_.ssd, ssd_before_, kSsdWindowFields);
  res_.cache = cache_->stats();
  sub_counters(res_.cache, cache_before_, cache::kCacheStatsFields);
  if (cfg_.registry != nullptr)
    res_.metrics = cfg_.registry->snapshot().delta_since(metrics_before_);
  // Window deltas mirror the ssd-stats delta above, so the ledger balance
  // invariant (flash bytes == cache-SSD write bytes) holds per window even
  // with preconditioning traffic before start().
  if (cfg_.provenance != nullptr)
    res_.provenance = cfg_.provenance->delta_since(prov_before_);
  if (cfg_.spans != nullptr) res_.spans = cfg_.spans->outcome();
  if (cfg_.tier != nullptr) {
    TierOutcome& to = res_.tier;
    to.active = true;
    tier::TierStats& window = to;
    window = cfg_.tier->tier_stats();
    sub_counters(window, tier_before_, tier::kTierStatsFields);
    to.resident_blocks = cfg_.tier->resident_blocks();
    to.resident_compressed_bytes = cfg_.tier->resident_compressed_bytes();
    to.dirty_blocks = cfg_.tier->dirty_blocks();
    to.budget_bytes = cfg_.tier->config().budget_bytes;
  }

  if (cfg_.fault != nullptr) {
    FaultOutcome& fo = res_.fault;
    fo.active = true;
    static_cast<FaultCounters&>(fo) = read_fault_counters(*cfg_.fault);
    const sim::SimTime first = cfg_.fault->first_fire_time();
    if (first >= 0) fo.first_fault_s = sim::to_seconds(first - start_);
  }
  if (cfg_.rebuild != nullptr) {
    // Grant the rebuilder the whole window's rate budget (ops may have run
    // out early), then close any still-open degraded interval at the
    // nominal window end — both deterministic in virtual time.
    cfg_.rebuild->pump(window_end());
    cfg_.rebuild->finalize(window_end());
    res_.rebuild = cfg_.rebuild->outcome();
  }
  if (cfg_.adapt != nullptr) {
    res_.adapt_epochs = cfg_.adapt->epochs_completed();
    res_.adapt_rebalances = cfg_.adapt->rebalances();
    const std::vector<u64>& targets = cfg_.adapt->targets();
    for (size_t t = 0; t < res_.tenants.size() && t < targets.size(); ++t)
      res_.tenants[t].target_blocks = targets[t];
  }
  summarize(res_);
  return std::move(res_);
}

}  // namespace srcache::workload
