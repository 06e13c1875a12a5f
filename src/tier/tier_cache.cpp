#include "tier/tier_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/runs.hpp"

namespace srcache::tier {

void TierConfig::validate() const {
  if (budget_bytes == 0)
    throw std::invalid_argument("tier: budget_bytes must be > 0");
  if (dirty_pct > 100)
    throw std::invalid_argument("tier: dirty_pct must be in [0, 100]");
  if (cpu_ns_per_byte < 0.0)
    throw std::invalid_argument("tier: cpu_ns_per_byte must be >= 0");
  if (destage_batch_blocks == 0)
    throw std::invalid_argument("tier: destage_batch_blocks must be > 0");
  if (incompressible_pct > 100)
    throw std::invalid_argument("tier: incompressible_pct must be in [0, 100]");
}

TierCache::TierCache(const TierConfig& cfg, cache::CacheDevice* inner,
                     src::SrcCache* src)
    : cfg_(cfg), inner_(inner), src_(src) {
  cfg_.validate();
  if (inner_ == nullptr)
    throw std::invalid_argument("tier: inner cache is required");
  // The policy's ghost structures are sized in blocks as if the budget held
  // incompressible data — a lower bound on residency, which only makes the
  // ghosts conservative.
  eviction_ =
      policy::make_eviction(cfg_.eviction, cfg_.budget_bytes / kBlockSize);
  // Calibrated virtual CPU cost: compression charges per uncompressed byte;
  // decompression runs roughly twice as fast for LZ-class codecs.
  compress_ns_ = static_cast<SimTime>(cfg_.cpu_ns_per_byte *
                                      static_cast<double>(kBlockSize));
  decompress_ns_ = compress_ns_ / 2;
}

u32 TierCache::compressed_size(u8 comp_pct) const {
  // 0 means the workload stamped nothing: treat as incompressible.
  const u32 pct = comp_pct == 0 ? 100 : std::min<u32>(comp_pct, 100);
  return std::max<u32>(1, static_cast<u32>(kBlockSize) * pct / 100);
}

void TierCache::admit(u64 lba, u64 tag, u16 tenant, u32 csize, bool dirty) {
  Entry e;
  e.tag = tag;
  e.csize = csize;
  e.tenant = tenant;
  e.dirty = dirty;
  fifo_.push_back(lba);
  e.pos = std::prev(fifo_.end());
  map_.emplace(lba, e);
  resident_csize_ += csize;
  if (dirty) {
    dirty_csize_ += csize;
    dirty_blocks_++;
  }
  tstats_.admit_blocks++;
  tstats_.uncompressed_bytes += kBlockSize;
  tstats_.compressed_bytes += csize;
  eviction_->on_admit(lba);
}

void TierCache::remove_entry(u64 lba, Entry& e) {
  resident_csize_ -= e.csize;
  if (e.dirty) {
    dirty_csize_ -= e.csize;
    dirty_blocks_--;
  }
  fifo_.erase(e.pos);
  map_.erase(lba);
  tstats_.evict_blocks++;
}

SimTime TierCache::destage_batch(SimTime now, std::vector<u64>& lbas,
                                 std::vector<u64>& tags,
                                 std::vector<u16>& tenants) {
  if (lbas.empty()) return now;
  SimTime done = now;
  if (src_ != nullptr) {
    done = src_->tier_destage(now, lbas, tags, tenants);
  } else {
    for (size_t i = 0; i < lbas.size(); ++i) {
      cache::AppRequest w;
      w.now = now;
      w.is_write = true;
      w.lba = lbas[i];
      w.tenant = tenants[i];
      w.tags = &tags[i];
      done = std::max(done, inner_->submit(w));
    }
  }
  tstats_.destage_blocks += lbas.size();
  stats_.destage_blocks += lbas.size();
  lbas.clear();
  tags.clear();
  tenants.clear();
  return done;
}

SimTime TierCache::enforce_dirty_bound(SimTime now) {
  const u64 limit = cfg_.budget_bytes / 100 * cfg_.dirty_pct;
  if (dirty_csize_ <= limit) return now;
  SimTime done = now;
  std::vector<u64> lbas, tags;
  std::vector<u16> tenants;
  // Oldest-first write-back: blocks stay resident, flipped clean — the
  // bound limits exposure, it does not evict.
  for (auto it = fifo_.begin(); it != fifo_.end() && dirty_csize_ > limit;
       ++it) {
    Entry& e = map_.at(*it);
    if (!e.dirty) continue;
    lbas.push_back(*it);
    tags.push_back(e.tag);
    tenants.push_back(e.tenant);
    e.dirty = false;
    dirty_csize_ -= e.csize;
    dirty_blocks_--;
    if (lbas.size() >= cfg_.destage_batch_blocks)
      done = std::max(done, destage_batch(now, lbas, tags, tenants));
  }
  done = std::max(done, destage_batch(now, lbas, tags, tenants));
  return done;
}

SimTime TierCache::enforce_budget(SimTime now) {
  if (resident_csize_ <= cfg_.budget_bytes) return now;
  SimTime done = now;
  std::vector<u64> lbas, tags;
  std::vector<u16> tenants;
  // FIFO walk with a policy second chance; after one full pass every block
  // has been consulted once, and the front is force-evicted so a
  // keep-everything policy (the paper policy keeps all dirty blocks) cannot
  // livelock the walk.
  size_t walked = 0;
  const size_t pass = fifo_.size();
  while (resident_csize_ > cfg_.budget_bytes && !fifo_.empty()) {
    const u64 lba = fifo_.front();
    Entry& e = map_.at(lba);
    const bool keep =
        walked < pass && eviction_->keep_on_gc(lba, e.hot, e.dirty);
    ++walked;
    if (keep) {
      e.hot = false;  // second chance spent
      fifo_.pop_front();
      fifo_.push_back(lba);
      e.pos = std::prev(fifo_.end());
      continue;
    }
    if (walked > pass) eviction_->on_evict(lba);  // forced, no gc verdict
    if (e.dirty) {
      lbas.push_back(lba);
      tags.push_back(e.tag);
      tenants.push_back(e.tenant);
      if (lbas.size() >= cfg_.destage_batch_blocks)
        done = std::max(done, destage_batch(now, lbas, tags, tenants));
    } else if (src_ != nullptr &&
               src_->residence(lba) == src::SrcCache::Residence::kAbsent) {
      done = std::max(done, src_->tier_demote(now, lba, e.tag, e.tenant));
      tstats_.demote_blocks++;
    } else {
      tstats_.drop_blocks++;
    }
    remove_entry(lba, e);
  }
  done = std::max(done, destage_batch(now, lbas, tags, tenants));
  return done;
}

SimTime TierCache::do_write(const cache::AppRequest& req) {
  const SimTime now = req.now;
  stats_.app_write_ops++;
  stats_.app_write_blocks += req.nblocks;
  const u32 csize = compressed_size(req.comp_pct);
  const bool incompressible =
      req.comp_pct == 0 || req.comp_pct > cfg_.incompressible_pct;
  SimTime ack = now;
  SimTime cpu = 0;

  std::vector<u64> bypass_lbas;
  std::vector<u64> bypass_tags;
  for (u32 i = 0; i < req.nblocks; ++i) {
    const u64 lba = req.lba + i;
    const u64 tag = req.tags != nullptr
                        ? req.tags[i]
                        : blockdev::make_tag(lba, ++tag_version_);
    if (incompressible) {
      // An incompressible overwrite of a tier-resident block must not leave
      // a stale compressed copy behind.
      if (auto it = map_.find(lba); it != map_.end()) {
        eviction_->on_evict(lba);
        tstats_.drop_blocks++;
        remove_entry(lba, it->second);
      }
      tstats_.bypass_blocks++;
      bypass_lbas.push_back(lba);
      bypass_tags.push_back(tag);
      continue;
    }
    cpu += compress_ns_;
    if (auto it = map_.find(lba); it != map_.end()) {
      Entry& e = it->second;
      stats_.write_hit_blocks++;
      // Subtract-then-add: the deltas are unsigned, so a shrinking
      // overwrite must never form `csize - e.csize` directly.
      resident_csize_ -= e.csize;
      resident_csize_ += csize;
      if (e.dirty) {
        dirty_csize_ -= e.csize;
        dirty_csize_ += csize;
      } else {
        dirty_csize_ += csize;
        dirty_blocks_++;
        e.dirty = true;
      }
      e.csize = csize;
      e.tag = tag;
      e.tenant = static_cast<u16>(req.tenant);
      e.hot = true;
      eviction_->on_access(lba);
    } else {
      stats_.write_new_blocks++;
      admit(lba, tag, static_cast<u16>(req.tenant), csize, /*dirty=*/true);
    }
  }

  // Bypass runs go straight down; the inner cache's own classification
  // (hit vs new) carries up so the tier-level ratio stays honest.
  const u64 inner_hit0 = inner_->stats().write_hit_blocks;
  common::for_each_run(
      bypass_lbas, common::consecutive, [&](size_t i, size_t n) {
        cache::AppRequest w;
        w.now = now;
        w.is_write = true;
        w.lba = bypass_lbas[i];
        w.nblocks = static_cast<u32>(n);
        w.tenant = req.tenant;
        w.comp_pct = req.comp_pct;
        w.tags = &bypass_tags[i];
        ack = std::max(ack, inner_->submit(w));
      });
  if (!bypass_lbas.empty()) {
    const u64 inner_hits = inner_->stats().write_hit_blocks - inner_hit0;
    stats_.write_hit_blocks += inner_hits;
    stats_.write_new_blocks += bypass_lbas.size() - inner_hits;
  }

  tstats_.cpu_compress_ns += static_cast<u64>(cpu);
  ack = std::max(ack, enforce_dirty_bound(now));
  ack = std::max(ack, enforce_budget(now));
  return ack + cpu;
}

SimTime TierCache::do_read(const cache::AppRequest& req) {
  const SimTime now = req.now;
  stats_.app_read_ops++;
  stats_.app_read_blocks += req.nblocks;
  const u32 csize = compressed_size(req.comp_pct);
  const bool compressible =
      req.comp_pct != 0 && req.comp_pct <= cfg_.incompressible_pct;
  SimTime ack = now;
  SimTime cpu = 0;

  // Tags for missed blocks always come back from below (scratch buffer when
  // the caller did not ask), so admitted blocks carry real content.
  std::vector<u64> scratch;
  u64* tags_out = req.tags_out;
  if (tags_out == nullptr) {
    scratch.assign(req.nblocks, 0);
    tags_out = scratch.data();
  }

  u32 admits = 0;
  u32 k = 0;
  while (k < req.nblocks) {
    const u64 lba = req.lba + k;
    if (auto it = map_.find(lba); it != map_.end()) {
      Entry& e = it->second;
      tstats_.hit_blocks++;
      stats_.read_hit_blocks++;
      cpu += decompress_ns_;
      tags_out[k] = e.tag;
      e.hot = true;
      eviction_->on_access(lba);
      ++k;
      continue;
    }
    // Contiguous run of tier misses, forwarded as one inner request.
    u32 run = 1;
    while (k + run < req.nblocks && !map_.contains(req.lba + k + run)) ++run;
    // Pre-read snapshot of what is resident (and already hot) below: the
    // read itself marks blocks hot, so promotion must look first.
    std::vector<u8> below(run, 0);
    if (src_ != nullptr) {
      for (u32 r = 0; r < run; ++r) {
        const u64 l = req.lba + k + r;
        if (src_->residence(l) != src::SrcCache::Residence::kAbsent)
          below[r] = src_->hot_hint(l) ? 2 : 1;
      }
    }
    const u64 inner_miss0 = inner_->stats().read_miss_blocks;
    cache::AppRequest sub;
    sub.now = now;
    sub.lba = req.lba + k;
    sub.nblocks = run;
    sub.tenant = req.tenant;
    sub.comp_pct = req.comp_pct;
    sub.tags_out = tags_out + k;
    ack = std::max(ack, inner_->submit(sub));
    const u64 inner_misses = inner_->stats().read_miss_blocks - inner_miss0;
    tstats_.miss_blocks += run;
    stats_.read_miss_blocks += std::min<u64>(inner_misses, run);
    stats_.read_hit_blocks += run - std::min<u64>(inner_misses, run);

    for (u32 r = 0; r < run; ++r) {
      const u64 l = req.lba + k + r;
      if (!compressible) {
        tstats_.bypass_blocks++;
        continue;
      }
      // Admit read-miss fills; promote inner-cache residents only on the
      // hot hint (they are already one flash read away).
      const bool promote = below[r] == 2;
      if (below[r] == 1 && src_ != nullptr) continue;
      if (map_.contains(l)) continue;  // runs can overlap after admits
      stats_.fetch_blocks++;
      if (promote) tstats_.promote_blocks++;
      admit(l, tags_out[k + r], static_cast<u16>(req.tenant), csize,
            /*dirty=*/false);
      ++admits;
      cpu += compress_ns_;
    }
    k += run;
  }

  tstats_.cpu_decompress_ns +=
      static_cast<u64>(cpu - compress_ns_ * admits);
  tstats_.cpu_compress_ns += static_cast<u64>(compress_ns_ * admits);
  ack = std::max(ack, enforce_budget(now));
  return ack + cpu;
}

SimTime TierCache::submit(const cache::AppRequest& req) {
  return req.is_write ? do_write(req) : do_read(req);
}

SimTime TierCache::flush(SimTime now) {
  stats_.app_flushes++;
  SimTime done = now;
  std::vector<u64> lbas, tags;
  std::vector<u16> tenants;
  for (auto it = fifo_.begin(); it != fifo_.end(); ++it) {
    Entry& e = map_.at(*it);
    if (!e.dirty) continue;
    lbas.push_back(*it);
    tags.push_back(e.tag);
    tenants.push_back(e.tenant);
    e.dirty = false;
    dirty_csize_ -= e.csize;
    dirty_blocks_--;
    if (lbas.size() >= cfg_.destage_batch_blocks)
      done = std::max(done, destage_batch(now, lbas, tags, tenants));
  }
  done = std::max(done, destage_batch(now, lbas, tags, tenants));
  return std::max(done, inner_->flush(now));
}

void TierCache::on_power_cut(SimTime now) {
  (void)now;
  // Walk in FIFO order so policy teardown (ghost insertions) is
  // deterministic across shard/thread counts.
  for (u64 lba : fifo_) {
    const Entry& e = map_.at(lba);
    if (e.dirty) {
      tstats_.lost_dirty_blocks++;
      if (fault_ledger_ != nullptr) {
        // Write-back loss is *accounted*, never silent: each lost block is
        // an injected fault that is immediately detected.
        fault_ledger_->record_injected(fault::FaultKind::kPowerCut,
                                       kLedgerDev, lba);
        fault_ledger_->record_detected(kLedgerDev, lba);
      }
    }
    eviction_->on_evict(lba);
  }
  tstats_.evict_blocks += map_.size();
  map_.clear();
  fifo_.clear();
  resident_csize_ = 0;
  dirty_csize_ = 0;
  dirty_blocks_ = 0;
}

void TierCache::register_metrics(const obs::Scope& scope) {
  // Every TierStats counter except the cumulative byte totals: the
  // "compressed_bytes" gauge below is the resident compressed size.
  for (const CounterField<TierStats>& f : kTierStatsFields) {
    if (f.counter == nullptr || f.counter == &TierStats::uncompressed_bytes ||
        f.counter == &TierStats::compressed_bytes)
      continue;
    scope.counter_fn(f.name, [this, c = f.counter] { return tstats_.*c; });
  }
  scope.gauge_fn("resident_blocks",
                 [this] { return static_cast<double>(map_.size()); });
  scope.gauge_fn("compressed_bytes",
                 [this] { return static_cast<double>(resident_csize_); });
  scope.gauge_fn("dirty_bytes",
                 [this] { return static_cast<double>(dirty_csize_); });
  scope.gauge_fn("cpu_ns", [this] {
    return static_cast<double>(tstats_.cpu_compress_ns +
                               tstats_.cpu_decompress_ns);
  });
  // Ratio gauges live under the top-level "util." namespace so the engine's
  // merged time series averages them across domains instead of summing.
  const obs::Scope util(scope.registry(), "util." + scope.prefix());
  util.gauge_fn("hit_ratio", [this] { return tstats_.hit_ratio(); });
  util.gauge_fn("compression_ratio",
                [this] { return tstats_.compression_ratio(); });
}

}  // namespace srcache::tier
