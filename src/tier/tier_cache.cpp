#include "tier/tier_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "common/runs.hpp"

namespace srcache::tier {

constexpr u8 kIncompressiblePct = 95;  // comp_pct above this bypasses the tier

void TierConfig::validate() const {
  if (budget_bytes == 0)
    throw std::invalid_argument("tier: budget_bytes must be > 0");
  if (dirty_pct > 100)
    throw std::invalid_argument("tier: dirty_pct must be in [0, 100]");
  if (cpu_ns_per_byte < 0.0)
    throw std::invalid_argument("tier: cpu_ns_per_byte must be >= 0");
  if (destage_batch_blocks == 0)
    throw std::invalid_argument("tier: destage_batch_blocks must be > 0");
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
  e.flags = dirty ? policy::kFlagDirty : u8{0};
  eviction_->on_admit(lba, e.flags);
  e.seq = push_slot(lba);
  map_.emplace(lba, e);
  resident_csize_ += csize;
  if (dirty) {
    dirty_csize_ += csize;
    dirty_blocks_++;
    mark_dirty(e.seq);
  }
  tstats_.admit_blocks++;
  tstats_.uncompressed_bytes += kBlockSize;
  tstats_.compressed_bytes += csize;
}

void TierCache::remove_entry(u64 lba, Entry& e) {
  resident_csize_ -= e.csize;
  if (e.dirty()) {
    dirty_csize_ -= e.csize;
    dirty_blocks_--;
    mark_clean(e.seq);
  }
  vacate(e.seq);
  map_.erase(lba);
  tstats_.evict_blocks++;
  // Holes behind a front that never moves (no budget pressure) would
  // otherwise grow the ring without bound.
  if (ring_.size() > 2 * map_.size() + kSummarySpan) compact();
}

u64 TierCache::push_slot(u64 lba) {
  const u64 seq = end_seq();
  ring_.push_back(lba);
  if (seq - bits_base_ >= 64 * dirty_words_.size()) {
    dirty_words_.resize(dirty_words_.size() + 64, 0);
    dirty_summary_.push_back(0);
  }
  return seq;
}

void TierCache::vacate(u64 seq) {
  ring_[seq - base_] = kHole;
  while (!ring_.empty() && ring_.front() == kHole) {
    ring_.pop_front();
    ++base_;
  }
  // Summary spans wholly below the front hold no dirty bits.
  while (base_ - bits_base_ >= kSummarySpan) {
    dirty_words_.erase(dirty_words_.begin(), dirty_words_.begin() + 64);
    dirty_summary_.pop_front();
    bits_base_ += kSummarySpan;
  }
}

void TierCache::mark_dirty(u64 seq) {
  const u64 bit = seq - bits_base_;
  dirty_words_[bit / 64] |= u64{1} << (bit % 64);
  dirty_summary_[bit / kSummarySpan] |= u64{1} << (bit / 64 % 64);
  dirty_cursor_ = std::min(dirty_cursor_, seq);
}

void TierCache::mark_clean(u64 seq) {
  const u64 bit = seq - bits_base_;
  u64& word = dirty_words_[bit / 64];
  word &= ~(u64{1} << (bit % 64));
  if (word == 0)
    dirty_summary_[bit / kSummarySpan] &= ~(u64{1} << (bit / 64 % 64));
}

bool TierCache::dirty_bit(u64 seq) const {
  const u64 bit = seq - bits_base_;
  return (dirty_words_[bit / 64] >> (bit % 64) & 1) != 0;
}

u64 TierCache::next_dirty(u64 from) {
  from = std::max(from, base_);
  if (from >= end_seq()) return end_seq();
  const u64 bit = from - bits_base_;
  u64 w = bit / 64;
  ++walk_visits_;
  if (const u64 m = dirty_words_[w] & (~u64{0} << (bit % 64)); m != 0)
    return bits_base_ + w * 64 + std::countr_zero(m);
  // The rest of w's summary word, then whole summary words onward.
  u64 s = w / 64;
  u64 sm = w % 64 == 63 ? 0 : dirty_summary_[s] & (~u64{0} << (w % 64 + 1));
  for (;;) {
    ++walk_visits_;
    if (sm != 0) break;
    if (++s == dirty_summary_.size()) return end_seq();
    sm = dirty_summary_[s];
  }
  w = s * 64 + std::countr_zero(sm);
  ++walk_visits_;
  return bits_base_ + w * 64 + std::countr_zero(dirty_words_[w]);
}

void TierCache::reset_ring() {
  ring_.clear();
  dirty_words_.clear();
  dirty_summary_.clear();
  base_ = bits_base_ = dirty_cursor_ = 0;
}

void TierCache::compact() {
  std::deque<u64> old;
  old.swap(ring_);
  reset_ring();
  for (u64 lba : old) {
    if (lba == kHole) continue;
    Entry& e = map_.at(lba);
    e.seq = push_slot(lba);
    if (e.dirty()) mark_dirty(e.seq);
  }
}

SimTime TierCache::queue_destage(SimTime now, u64 lba, const Entry& e) {
  batch_lbas_.push_back(lba);
  batch_tags_.push_back(e.tag);
  batch_tenants_.push_back(e.tenant);
  if (batch_lbas_.size() < cfg_.destage_batch_blocks) return now;
  return destage_batch(now);
}

SimTime TierCache::destage_batch(SimTime now) {
  if (batch_lbas_.empty()) return now;
  SimTime done = now;
  if (src_ != nullptr) {
    done = src_->tier_destage(now, batch_lbas_, batch_tags_, batch_tenants_);
  } else {
    for (size_t i = 0; i < batch_lbas_.size(); ++i) {
      cache::AppRequest w;
      w.now = now;
      w.is_write = true;
      w.lba = batch_lbas_[i];
      w.tenant = batch_tenants_[i];
      w.tags = &batch_tags_[i];
      done = std::max(done, inner_->submit(w));
    }
  }
  tstats_.destage_blocks += batch_lbas_.size();
  stats_.destage_blocks += batch_lbas_.size();
  batch_lbas_.clear();
  batch_tags_.clear();
  batch_tenants_.clear();
  return done;
}

SimTime TierCache::destage_oldest(SimTime now, u64 limit) {
  SimTime done = now;
  // Oldest-first write-back: blocks stay resident, flipped clean — the
  // bound limits exposure, it does not evict.
  while (dirty_csize_ > limit) {
    const u64 seq = next_dirty(dirty_cursor_);
    dirty_cursor_ = seq + 1;
    ++walk_visits_;
    const u64 lba = ring_[seq - base_];
    Entry& e = map_.at(lba);
    mark_clean(seq);
    e.flags &= ~policy::kFlagDirty;
    dirty_csize_ -= e.csize;
    dirty_blocks_--;
    done = std::max(done, queue_destage(now, lba, e));
  }
  return std::max(done, destage_batch(now));
}

SimTime TierCache::enforce_budget(SimTime now) {
  if (resident_csize_ <= cfg_.budget_bytes) return now;
  SimTime done = now;
  // FIFO walk with a policy second chance; after one full pass every block
  // has been consulted once, and the front is force-evicted so a
  // keep-everything policy (the paper policy keeps all dirty blocks) cannot
  // livelock the walk.
  size_t walked = 0;
  const size_t pass = map_.size();
  while (resident_csize_ > cfg_.budget_bytes && !map_.empty()) {
    const u64 lba = ring_.front();
    Entry& e = map_.at(lba);
    const bool keep = walked < pass && eviction_->keep_on_gc(lba, e.flags);
    ++walked;
    if (keep) {
      // Second chance spent: to the back of the ring, dirty bit and all.
      e.flags &= ~policy::kFlagHot;
      const u64 old_seq = e.seq;
      e.seq = push_slot(lba);
      if (e.dirty()) {
        mark_clean(old_seq);
        mark_dirty(e.seq);
      }
      vacate(old_seq);
      continue;
    }
    if (e.dirty()) {
      done = std::max(done, queue_destage(now, lba, e));
    } else if (src_ != nullptr &&
               src_->residence(lba) == src::SrcCache::Residence::kAbsent) {
      done = std::max(done, src_->tier_demote(now, lba, e.tag, e.tenant));
      tstats_.demote_blocks++;
    } else {
      tstats_.drop_blocks++;
    }
    remove_entry(lba, e);
  }
  return std::max(done, destage_batch(now));
}

SimTime TierCache::do_write(const cache::AppRequest& req) {
  const SimTime now = req.now;
  stats_.app_write_ops++;
  stats_.app_write_blocks += req.nblocks;
  const u32 csize = compressed_size(req.comp_pct);
  const bool incompressible =
      req.comp_pct == 0 || req.comp_pct > kIncompressiblePct;
  SimTime ack = now;
  SimTime cpu = 0;

  bypass_lbas_.clear();
  bypass_tags_.clear();
  for (u32 i = 0; i < req.nblocks; ++i) {
    const u64 lba = req.lba + i;
    const u64 tag = req.tags != nullptr
                        ? req.tags[i]
                        : blockdev::make_tag(lba, ++tag_version_);
    if (incompressible) {
      // An incompressible overwrite of a tier-resident block must not leave
      // a stale compressed copy behind.
      if (Entry* e = map_.find(lba)) {
        tstats_.drop_blocks++;
        remove_entry(lba, *e);
      }
      tstats_.bypass_blocks++;
      bypass_lbas_.push_back(lba);
      bypass_tags_.push_back(tag);
      continue;
    }
    cpu += compress_ns_;
    if (Entry* found = map_.find(lba)) {
      Entry& e = *found;
      stats_.write_hit_blocks++;
      // Subtract-then-add: the deltas are unsigned, so a shrinking
      // overwrite must never form `csize - e.csize` directly.
      resident_csize_ -= e.csize;
      resident_csize_ += csize;
      if (e.dirty()) {
        dirty_csize_ -= e.csize;
        dirty_csize_ += csize;
      } else {
        dirty_csize_ += csize;
        dirty_blocks_++;
        mark_dirty(e.seq);  // in place: the block keeps its FIFO slot
      }
      e.csize = csize;
      e.tag = tag;
      e.tenant = static_cast<u16>(req.tenant);
      e.flags |= policy::kFlagDirty | policy::kFlagHot;
      eviction_->on_access(e.flags);
    } else {
      stats_.write_new_blocks++;
      admit(lba, tag, static_cast<u16>(req.tenant), csize, /*dirty=*/true);
    }
  }

  // Bypass runs go straight down; the inner cache's own classification
  // (hit vs new) carries up so the tier-level ratio stays honest.
  const u64 inner_hit0 = inner_->stats().write_hit_blocks;
  common::for_each_run(
      bypass_lbas_, common::consecutive, [&](size_t i, size_t n) {
        cache::AppRequest w;
        w.now = now;
        w.is_write = true;
        w.lba = bypass_lbas_[i];
        w.nblocks = static_cast<u32>(n);
        w.tenant = req.tenant;
        w.comp_pct = req.comp_pct;
        w.tags = &bypass_tags_[i];
        ack = std::max(ack, inner_->submit(w));
      });
  if (!bypass_lbas_.empty()) {
    const u64 inner_hits = inner_->stats().write_hit_blocks - inner_hit0;
    stats_.write_hit_blocks += inner_hits;
    stats_.write_new_blocks += bypass_lbas_.size() - inner_hits;
  }

  tstats_.cpu_compress_ns += static_cast<u64>(cpu);
  ack = std::max(ack, destage_oldest(now, dirty_limit()));
  ack = std::max(ack, enforce_budget(now));
  return ack + cpu;
}

SimTime TierCache::do_read(const cache::AppRequest& req) {
  const SimTime now = req.now;
  stats_.app_read_ops++;
  stats_.app_read_blocks += req.nblocks;
  const u32 csize = compressed_size(req.comp_pct);
  const bool compressible =
      req.comp_pct != 0 && req.comp_pct <= kIncompressiblePct;
  SimTime ack = now;
  SimTime cpu = 0;

  // Tags for missed blocks always come back from below (scratch buffer when
  // the caller did not ask), so admitted blocks carry real content.
  u64* tags_out = req.tags_out;
  if (tags_out == nullptr) {
    read_tags_.assign(req.nblocks, 0);
    tags_out = read_tags_.data();
  }

  u32 admits = 0;
  u32 k = 0;
  while (k < req.nblocks) {
    const u64 lba = req.lba + k;
    if (Entry* found = map_.find(lba)) {
      Entry& e = *found;
      tstats_.hit_blocks++;
      stats_.read_hit_blocks++;
      cpu += decompress_ns_;
      tags_out[k] = e.tag;
      e.flags |= policy::kFlagHot;
      eviction_->on_access(e.flags);
      ++k;
      continue;
    }
    // Contiguous run of tier misses, forwarded as one inner request.
    u32 run = 1;
    while (k + run < req.nblocks && !map_.contains(req.lba + k + run)) ++run;
    // Pre-read snapshot of what is resident (and already hot) below: the
    // read itself marks blocks hot, so promotion must look first.
    below_.assign(run, 0);
    if (src_ != nullptr) {
      for (u32 r = 0; r < run; ++r) {
        const u64 l = req.lba + k + r;
        if (src_->residence(l) != src::SrcCache::Residence::kAbsent)
          below_[r] = src_->hot_hint(l) ? 2 : 1;
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
      const bool promote = below_[r] == 2;
      if (below_[r] == 1 && src_ != nullptr) continue;
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
  // Every dirty block has csize >= 1, so a zero limit destages them all.
  const SimTime done = destage_oldest(now, 0);
  return std::max(done, inner_->flush(now));
}

void TierCache::on_power_cut(SimTime now) {
  (void)now;
  // Walk in FIFO order so the ledger records land in the same order across
  // shard/thread counts.
  for (u64 lba : ring_) {
    if (lba == kHole) continue;
    const Entry& e = map_.at(lba);
    if (e.dirty()) {
      tstats_.lost_dirty_blocks++;
      if (fault_ledger_ != nullptr) {
        // Write-back loss is *accounted*, never silent: each lost block is
        // an injected fault that is immediately detected.
        fault_ledger_->record_injected(fault::FaultKind::kPowerCut,
                                       kLedgerDev, lba);
        fault_ledger_->record_detected(kLedgerDev, lba);
      }
    }
  }
  tstats_.evict_blocks += map_.size();
  map_.clear();
  reset_ring();
  resident_csize_ = 0;
  dirty_csize_ = 0;
  dirty_blocks_ = 0;
}

Status TierCache::verify_consistency() const {
  auto corrupted = [](const char* what) {
    return Status(ErrorCode::kCorrupted, std::string("tier: ") + what);
  };
  if (bits_base_ % kSummarySpan != 0 || bits_base_ > base_ ||
      dirty_words_.size() != 64 * dirty_summary_.size() ||
      end_seq() > bits_base_ + 64 * dirty_words_.size())
    return corrupted("dirty bitset does not cover the ring");
  u64 resident = 0, dirty = 0, dirty_n = 0;
  for (const auto& [lba, e] : map_) {
    resident += e.csize;
    if (e.seq < base_ || e.seq >= end_seq() || ring_[e.seq - base_] != lba)
      return corrupted("entry's ring slot does not hold its lba");
    if (dirty_bit(e.seq) != e.dirty())
      return corrupted("dirty bit disagrees with its entry");
    if (!e.dirty()) continue;
    dirty += e.csize;
    ++dirty_n;
    if (e.seq < dirty_cursor_) return corrupted("dirty slot below the cursor");
  }
  if (resident != resident_csize_) return corrupted("resident bytes drift");
  if (dirty != dirty_csize_) return corrupted("dirty bytes drift");
  if (dirty_n != dirty_blocks_) return corrupted("dirty block count drift");
  // Entries map to distinct slots holding their lba, so equal counts make
  // every live slot one entry's.
  const auto holes = std::count(ring_.begin(), ring_.end(), kHole);
  if (ring_.size() - static_cast<u64>(holes) != map_.size())
    return corrupted("live slot without an entry");
  if (!ring_.empty() && ring_.front() == kHole)
    return corrupted("hole at the ring front");
  // Every set bit is a dirty entry's, and the summary mirrors the words.
  u64 bits = 0;
  for (size_t w = 0; w < dirty_words_.size(); ++w) {
    bits += static_cast<u64>(std::popcount(dirty_words_[w]));
    const bool summary_bit = (dirty_summary_[w / 64] >> (w % 64) & 1) != 0;
    if (summary_bit != (dirty_words_[w] != 0))
      return corrupted("summary bit disagrees with its word");
  }
  if (bits != dirty_blocks_) return corrupted("dirty bit without an entry");
  if (resident_csize_ > cfg_.budget_bytes) return corrupted("over budget");
  if (dirty_csize_ > dirty_limit()) return corrupted("over the dirty bound");
  return Status::ok();
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
