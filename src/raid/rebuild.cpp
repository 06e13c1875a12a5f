#include "raid/rebuild.hpp"

#include <algorithm>

namespace srcache::raid {

RebuildManager::RebuildManager(const RebuildConfig& cfg,
                               std::vector<blockdev::BlockDevice*> ssds)
    : cfg_(cfg), ssds_(std::move(ssds)), devs_(ssds_.size()) {
  out_.spares_total = cfg.spares;
}

// --- interval set -----------------------------------------------------------

void RebuildManager::insert(Intervals& set, u64 begin, u64 end) {
  if (begin >= end) return;
  auto it = set.upper_bound(begin);
  if (it != set.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) {
      begin = prev->first;
      end = std::max(end, prev->second);
      it = set.erase(prev);
    }
  }
  while (it != set.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = set.erase(it);
  }
  set[begin] = end;
}

void RebuildManager::remove(Intervals& set, u64 begin, u64 end) {
  if (begin >= end || set.empty()) return;
  auto it = set.upper_bound(begin);
  if (it != set.begin()) --it;
  while (it != set.end() && it->first < end) {
    const u64 s = it->first;
    const u64 e = it->second;
    if (e <= begin) {
      ++it;
      continue;
    }
    it = set.erase(it);
    if (s < begin) set[s] = begin;
    if (e > end) {
      set[end] = e;
      break;
    }
  }
}

bool RebuildManager::contains(const Intervals& set, u64 block) {
  auto it = set.upper_bound(block);
  if (it == set.begin()) return false;
  return std::prev(it)->second > block;
}

u64 RebuildManager::total(const Intervals& set) {
  u64 t = 0;
  for (const auto& [b, e] : set) t += e - b;
  return t;
}

// --- event handlers ---------------------------------------------------------

void RebuildManager::on_device_failed(size_t dev, sim::SimTime now) {
  if (dev >= devs_.size()) return;
  out_.active = true;
  devs_[dev].down = true;
  if (degraded_since_ < 0) degraded_since_ = now;
  // Everything live on the failed device is unprotected from this moment.
  u64 risk = 0;
  for (const RebuildExtent& ex : source_(dev)) risk += ex.count;
  out_.blocks_at_risk_peak =
      std::max(out_.blocks_at_risk_peak, risk + blocks_at_risk());
  // Second failure while another device rebuilds: every pending extent
  // whose reconstruction needs `dev` is lost for good.
  for (size_t a = 0; a < devs_.size(); ++a) {
    if (a == dev || !devs_[a].rebuilding) continue;
    abort_dependent(a, dev);
    if (devs_[a].queue.empty()) finish_device(a, now);
  }
}

void RebuildManager::abort_dependent(size_t dev, size_t lost_dev) {
  DeviceState& st = devs_[dev];
  std::vector<RebuildExtent> lost;
  std::deque<RebuildExtent> keep;
  bool front = true;
  for (const RebuildExtent& ex : st.queue) {
    // Only the uncopied remainder of the front extent is still at stake.
    const u64 done = front ? st.cursor : 0;
    front = false;
    const bool needs =
        ex.how == RebuildHow::kParityXor ||
        (ex.how == RebuildHow::kMirror && ex.partner == lost_dev);
    if (!needs) {
      RebuildExtent k = ex;
      k.block += done;
      k.count -= done;
      if (k.count > 0) keep.push_back(k);
      continue;
    }
    lose_pending(st, ex, ex.block + done, lost);
  }
  st.queue = std::move(keep);
  st.cursor = 0;
  if (!lost.empty() && on_abort_) on_abort_(dev, lost);
}

void RebuildManager::lose_pending(DeviceState& st, const RebuildExtent& ex,
                                  u64 begin,
                                  std::vector<RebuildExtent>& lost) {
  // Only still-pending ranges are lost; discarded holes were overwritten
  // with fresh content that needs no reconstruction.
  const u64 end = ex.block + ex.count;
  u64 n = 0;
  auto it = st.pending.upper_bound(begin);
  if (it != st.pending.begin()) --it;
  while (it != st.pending.end() && it->first < end) {
    const u64 s = std::max(it->first, begin);
    const u64 e = std::min(it->second, end);
    ++it;
    if (s >= e) continue;
    insert(st.dead, s, e);
    lost.push_back({s, e - s, ex.how, ex.partner, nullptr});
    n += e - s;
  }
  remove(st.pending, begin, end);
  out_.blocks_unrecovered += n;
  if (n > 0) st.lost_any = true;
}

void RebuildManager::on_device_replaced(size_t dev, sim::SimTime now) {
  if (dev >= devs_.size()) return;
  out_.active = true;
  DeviceState& st = devs_[dev];
  st.down = false;
  // A replace without a preceding fail still installs a *blank* device: the
  // degraded clock runs until its contents are reconstructed.
  if (degraded_since_ < 0) degraded_since_ = now;
  out_.spares_used++;  // > spares_total reports a spare-pool deficit
  if (!rebuilding()) {
    rate_epoch_ = now;
    budget_spent_bytes_ = 0;
  }
  st.queue.clear();
  st.cursor = 0;
  st.lost_any = false;
  st.pending.clear();  // dead ranges survive a re-replace: content is gone
  u64 live = 0;
  for (const RebuildExtent& ex : source_(dev)) {
    if (ex.count == 0) continue;
    st.queue.push_back(ex);
    insert(st.pending, ex.block, ex.block + ex.count);
    live += ex.count;
  }
  const u64 sweep = ssds_[dev]->capacity_blocks();
  out_.blocks_skipped += sweep > live ? sweep - live : 0;
  out_.blocks_at_risk_peak =
      std::max(out_.blocks_at_risk_peak, blocks_at_risk());
  st.rebuilding = true;
  out_.rebuilds_started++;
  if (st.queue.empty()) finish_device(dev, now);
}

// --- the copy loop ----------------------------------------------------------

void RebuildManager::pump(sim::SimTime now) {
  if (!rebuilding() || now <= rate_epoch_) return;
  const u64 budget = static_cast<u64>(
      static_cast<double>(now - rate_epoch_) * cfg_.mbps / 1000.0);
  if (budget_spent_bytes_ >= budget) return;
  const bool sampled = span_ != nullptr && span_->begin_op("raid.rebuild", now);
  u64 copied = 0;
  for (size_t dev = 0; dev < devs_.size(); ++dev) {
    DeviceState& st = devs_[dev];
    if (!st.rebuilding) continue;
    while (budget_spent_bytes_ < budget && !st.queue.empty())
      copied += copy_batch(dev, now, budget);
    if (st.queue.empty()) finish_device(dev, now);
    if (budget_spent_bytes_ >= budget) break;
  }
  if (sampled) span_->end_op(now, copied);
}

void RebuildManager::discard(u64 block, u64 count) {
  if (count == 0) return;
  for (DeviceState& st : devs_) {
    if (st.pending.empty() && st.dead.empty()) continue;
    const u64 before = total(st.pending);
    remove(st.pending, block, block + count);
    out_.blocks_skipped += before - total(st.pending);
    // Overwritten blocks hold valid new content: no longer lost.
    remove(st.dead, block, block + count);
  }
}

u64 RebuildManager::copy_batch(size_t dev, sim::SimTime now, u64 budget) {
  DeviceState& st = devs_[dev];
  const RebuildExtent& ex = st.queue.front();
  blockdev::BlockDevice* target = ssds_[dev];

  if (ex.how == RebuildHow::kMetadata) {
    if (!contains(st.pending, ex.block)) {
      // Rewritten by a fresh segment seal since the snapshot.
      st.cursor = 0;
      st.queue.pop_front();
      return 0;
    }
    // Rewritten from in-RAM state; one payload write, no survivor reads.
    target->set_background(true);
    target->write_payload(now, ex.block, ex.payload);
    target->set_background(false);
    remove(st.pending, ex.block, ex.block + ex.count);
    // Ledgered in the devices' own payload rounding, so the provenance
    // ledger stays balanced against write_blocks.
    const u64 bytes = blocks_to_bytes(blockdev::payload_blocks(ex.payload));
    out_.blocks_copied += ex.count;
    out_.write_bytes += bytes;
    budget_spent_bytes_ += bytes;
    if (prov_ != nullptr) {
      prov_->add(static_cast<u32>(dev), obs::kSharedTenant,
                 obs::WriteCause::kRebuildCopy, bytes);
    }
    const u64 n = ex.count;
    st.cursor = 0;
    st.queue.pop_front();
    return n;
  }

  // Fast-forward past blocks discarded since the snapshot (overwritten by
  // fresh seals or trimmed with their SG): only still-pending blocks need
  // reconstruction, and the copy run must not straddle a discarded hole.
  const u64 ex_end = ex.block + ex.count;
  u64 b0 = ex.block + st.cursor;
  u64 run_end = 0;
  auto pit = st.pending.upper_bound(b0);
  if (pit != st.pending.begin() && std::prev(pit)->second > b0) {
    run_end = std::prev(pit)->second;
  } else if (pit != st.pending.end() && pit->first < ex_end) {
    b0 = pit->first;
    run_end = pit->second;
  } else {
    st.cursor = 0;
    st.queue.pop_front();
    return 0;
  }
  st.cursor = b0 - ex.block;
  run_end = std::min(run_end, ex_end);

  const u64 budget_blocks = std::max<u64>(
      1, (budget - budget_spent_bytes_ + kBlockSize - 1) / kBlockSize);
  const u64 m = std::min(
      {static_cast<u64>(cfg_.batch_blocks), run_end - b0, budget_blocks});
  std::vector<u64> acc(m, 0);
  bool read_ok = true;
  if (ex.how == RebuildHow::kMirror) {
    blockdev::BlockDevice* partner = ssds_[ex.partner];
    partner->set_background(true);
    read_ok = partner->read(now, b0, static_cast<u32>(m), acc).ok();
    partner->set_background(false);
    out_.read_bytes += m * kBlockSize;
  } else {
    std::vector<u64> row(m, 0);
    for (size_t d = 0; d < ssds_.size() && read_ok; ++d) {
      if (d == dev) continue;
      ssds_[d]->set_background(true);
      read_ok = ssds_[d]->read(now, b0, static_cast<u32>(m), row).ok();
      ssds_[d]->set_background(false);
      out_.read_bytes += m * kBlockSize;
      for (u64 i = 0; i < m; ++i) acc[i] ^= row[i];
    }
  }
  if (!read_ok) {
    // A survivor read failed (a latent sector error, or a death
    // on_device_failed has not reported yet): the still-pending rest of
    // this extent is lost.
    std::vector<RebuildExtent> lost;
    lose_pending(st, ex, b0, lost);
    if (!lost.empty() && on_abort_) on_abort_(dev, lost);
    st.cursor = 0;
    st.queue.pop_front();
    return 0;
  }
  target->set_background(true);
  target->write(now, b0, static_cast<u32>(m), acc);
  target->set_background(false);
  remove(st.pending, b0, b0 + m);
  st.cursor += m;
  const u64 bytes = m * kBlockSize;
  out_.blocks_copied += m;
  out_.write_bytes += bytes;
  budget_spent_bytes_ += bytes;
  if (prov_ != nullptr) {
    prov_->add(static_cast<u32>(dev), obs::kSharedTenant,
               obs::WriteCause::kRebuildCopy, bytes);
  }
  if (st.cursor == ex.count) {
    st.cursor = 0;
    st.queue.pop_front();
  }
  return m;
}

void RebuildManager::finish_device(size_t dev, sim::SimTime now) {
  DeviceState& st = devs_[dev];
  if (!st.rebuilding) return;
  st.rebuilding = false;
  st.cursor = 0;
  if (st.lost_any) {
    // The original fail-stop's ledger record stays detected-but-unrepaired:
    // detected-unrepairable is the honest verdict after a double fault.
    out_.rebuilds_aborted++;
  } else {
    out_.rebuilds_completed++;
    if (ledger_ != nullptr)
      ledger_->record_repaired_by_rebuild(static_cast<int>(dev));
  }
  maybe_stop_clock(now);
}

void RebuildManager::maybe_stop_clock(sim::SimTime now) {
  if (degraded_since_ < 0) return;
  for (const DeviceState& st : devs_)
    if (st.down || st.rebuilding) return;
  if (now > degraded_since_) out_.degraded_ns += now - degraded_since_;
  degraded_since_ = -1;
}

void RebuildManager::finalize(sim::SimTime now) {
  if (degraded_since_ >= 0 && now > degraded_since_) {
    out_.degraded_ns += now - degraded_since_;
    degraded_since_ = now;  // never double-count if finalize runs again
  }
}

// --- accessors --------------------------------------------------------------

bool RebuildManager::rebuilding() const {
  for (const DeviceState& st : devs_)
    if (st.rebuilding) return true;
  return false;
}

u64 RebuildManager::blocks_at_risk() const {
  u64 t = 0;
  for (const DeviceState& st : devs_) t += total(st.pending);
  return t;
}

bool RebuildManager::covers(size_t dev, u64 block) const {
  if (dev >= devs_.size()) return false;
  const DeviceState& st = devs_[dev];
  if (st.pending.empty() && st.dead.empty()) return false;
  return contains(st.pending, block) || contains(st.dead, block);
}

RebuildOutcome RebuildManager::outcome() const {
  RebuildOutcome o = out_;
  o.active = true;
  return o;
}

RebuildManager::ExtentSource full_sweep_source(RaidLevel level,
                                               u64 dev_blocks) {
  return [level, dev_blocks](size_t dev) {
    std::vector<RebuildExtent> ext;
    switch (level) {
      case RaidLevel::kRaid0:
        break;  // no redundancy: nothing can be reconstructed
      case RaidLevel::kRaid1:
        ext.push_back(
            {0, dev_blocks, RebuildHow::kMirror, dev ^ 1, nullptr});
        break;
      case RaidLevel::kRaid4:
      case RaidLevel::kRaid5:
        ext.push_back(
            {0, dev_blocks, RebuildHow::kParityXor, SIZE_MAX, nullptr});
        break;
    }
    return ext;
  };
}

}  // namespace srcache::raid
