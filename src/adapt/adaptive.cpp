#include "adapt/adaptive.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace srcache::adapt {

namespace {

// The partitioner runs with its own default stabilizers (partition.hpp).
PartitionController::Config partition_config(const AdaptConfig& cfg) {
  PartitionController::Config pc;
  pc.capacity_blocks = cfg.capacity_blocks;
  return pc;
}

// MRC resolution: candidate sizes at capacity * k / kMrcPoints.
constexpr u32 kMrcPoints = 32;
constexpr double kGhostDecay = 0.5;

GhostCache::Config ghost_config(const AdaptConfig& cfg) {
  GhostCache::Config gc;
  gc.sampling_rate = cfg.sampling_rate;
  gc.max_entries = cfg.ghost_max_entries;
  gc.decay = kGhostDecay;
  // Candidate ladder: capacity * k / kMrcPoints for k = 1..kMrcPoints. The
  // deepest point is full capacity — one tenant owning everything is a
  // feasible (if extreme) split the solver must be able to price.
  gc.sizes.reserve(kMrcPoints);
  for (u32 k = 1; k <= kMrcPoints; ++k) {
    const u64 s = cfg.capacity_blocks * k / kMrcPoints;
    if (gc.sizes.empty() || s > gc.sizes.back()) gc.sizes.push_back(s);
  }
  if (gc.sizes.empty()) gc.sizes.push_back(cfg.capacity_blocks);
  return gc;
}

}  // namespace

void AdaptConfig::validate() const {
  if (num_tenants == 0)
    throw std::invalid_argument("AdaptConfig: num_tenants must be > 0");
  if (capacity_blocks == 0)
    throw std::invalid_argument("AdaptConfig: capacity_blocks must be > 0");
  if (epoch <= 0) throw std::invalid_argument("AdaptConfig: epoch must be > 0");
  if (ghost_max_entries == 0)
    throw std::invalid_argument("AdaptConfig: ghost_max_entries must be > 0");
  partition_config(*this).validate(num_tenants);
}

AdaptiveController::AdaptiveController(const AdaptConfig& cfg, ApplyFn apply)
    : cfg_(cfg), apply_(std::move(apply)), partitioner_(partition_config(cfg)) {
  cfg_.validate();
  const GhostCache::Config gc = ghost_config(cfg_);
  ghosts_.reserve(cfg_.num_tenants);
  for (u32 t = 0; t < cfg_.num_tenants; ++t) ghosts_.emplace_back(gc);
  epoch_accesses_.assign(cfg_.num_tenants, 0.0);
  // Start managed: until the first epoch closes there is no MRC evidence, so
  // the fair even split stands in.
  targets_ = partitioner_.even_split(cfg_.num_tenants);
  if (apply_) apply_(targets_);
}

void AdaptiveController::observe(u32 tenant, u64 lba, u32 nblocks) {
  if (tenant >= cfg_.num_tenants) return;
  epoch_accesses_[tenant] += static_cast<double>(nblocks);
  GhostCache& g = ghosts_[tenant];
  for (u32 i = 0; i < nblocks; ++i) g.access(lba + i);
}

void AdaptiveController::set_epoch_start(sim::SimTime t0) { epoch_start_ = t0; }

bool AdaptiveController::epoch_due(sim::SimTime now) const {
  return now - epoch_start_ >= cfg_.epoch;
}

const std::vector<u64>& AdaptiveController::run_epoch(sim::SimTime now) {
  std::vector<GhostCache::Mrc> mrcs;
  mrcs.reserve(cfg_.num_tenants);
  for (const GhostCache& g : ghosts_) mrcs.push_back(g.mrc());

  std::vector<u64> next = partitioner_.solve(mrcs, epoch_accesses_, targets_);
  if (next != targets_) {
    targets_ = std::move(next);
    rebalances_++;
    if (apply_) apply_(targets_);
  }
  for (GhostCache& g : ghosts_) g.new_epoch();
  epoch_accesses_.assign(cfg_.num_tenants, 0.0);
  epochs_++;
  epoch_start_ = now;
  return targets_;
}

u64 AdaptiveController::ghost_entries_total() const {
  u64 total = 0;
  for (const GhostCache& g : ghosts_) total += g.entries();
  return total;
}

size_t AdaptiveController::ghost_memory_bytes() const {
  size_t total = 0;
  for (const GhostCache& g : ghosts_) total += g.memory_bytes();
  return total;
}

void AdaptiveController::register_metrics(const obs::Scope& scope) {
  scope.counter_fn("epochs", [this] { return static_cast<u64>(epochs_); });
  scope.counter_fn("rebalances",
                   [this] { return static_cast<u64>(rebalances_); });
  scope.gauge_fn("ghost.entries", [this] {
    return static_cast<double>(ghost_entries_total());
  });
  scope.gauge_fn("ghost.memory_bytes", [this] {
    return static_cast<double>(ghost_memory_bytes());
  });
  for (u32 t = 0; t < cfg_.num_tenants; ++t) {
    scope.gauge_fn("tenant." + std::to_string(t) + ".target_blocks",
                   [this, t] { return static_cast<double>(targets_[t]); });
  }
}

}  // namespace srcache::adapt
