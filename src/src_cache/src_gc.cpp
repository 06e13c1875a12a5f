// Free-space reclamation (§4.2): S2D destaging vs Sel-GC selective copying.
#include <algorithm>
#include <vector>

#include "src_cache/src_cache.hpp"

namespace srcache::src {

using obs::WriteCause;

namespace {
// How far reclaim_one's first loop looks ahead to prefetch map entries.
constexpr u32 kPrefetchSlots = 16;
}  // namespace

u32 SrcCache::pick_victim() const {
  u32 best = kBufferSg;
  for (u32 s = 0; s < sgs_.size(); ++s) {
    if (sgs_[s].state != SgState::kSealed) continue;
    if (best == kBufferSg) {
      best = s;
      continue;
    }
    switch (cfg_.victim) {
      case VictimPolicy::kFifo:
        if (sgs_[s].seal_seq < sgs_[best].seal_seq) best = s;
        break;
      case VictimPolicy::kGreedy:  // least-utilized SG, FIFO tie-break
        // reclaimable_live prices over-quota tenants' blocks as garbage, so
        // GC gravitates to SGs rich in blocks the partitioner wants gone.
        if (reclaimable_live(sgs_[s]) < reclaimable_live(sgs_[best]) ||
            (reclaimable_live(sgs_[s]) == reclaimable_live(sgs_[best]) &&
             sgs_[s].seal_seq < sgs_[best].seal_seq)) {
          best = s;
        }
        break;
    }
  }
  return best;
}

SimTime SrcCache::ensure_free_sg(SimTime now) {
  SimTime t = now;
  while (free_sgs_.size() <= kFreeSgReserve) {
    const size_t before = free_sgs_.size();
    t = std::max(t, reclaim_one(now, /*force_s2d=*/false));
    if (free_sgs_.size() == before) break;  // nothing reclaimable
  }
  return t;
}

SimTime SrcCache::reclaim_one(SimTime now, bool force_s2d) {
  const u32 v = pick_victim();
  if (v == kBufferSg) return now;

  // Sel-GC policy decision (§4.2): below UMAX keep hot data with
  // SSD-to-SSD copies; above it, destage to make real room. A nearly-full
  // victim is also destaged — copying it would reclaim no space — and so
  // is one reclaimed under a flush, which must not leave copies in RAM.
  u64 victim_slots = 0;
  for (u32 g = 0; g < sgs_[v].next_seg; ++g)
    victim_slots += sgs_[v].segs[g].slot_lba.size();
  const bool victim_nearly_full =
      victim_slots > 0 &&
      static_cast<double>(sgs_[v].live) >
          0.95 * static_cast<double>(victim_slots);
  const bool use_s2d = force_s2d || flushing_ || cfg_.gc == GcPolicy::kS2D ||
                       utilization() > cfg_.umax || victim_nearly_full;
  extra_.sg_reclaims++;
  if (use_s2d) extra_.s2d_reclaims++; else extra_.s2s_reclaims++;

  SgInfo& sg = sgs_[v];
  sg.state = SgState::kReclaiming;  // not selectable by nested reclaims
  const bool was_in_gc = in_gc_;
  in_gc_ = true;
  SimTime t = now;
  const u32 reclaim_span = (span_ != nullptr && span_->sampling())
                               ? span_->begin_span("src.reclaim", now)
                               : obs::kNoSpan;

  // Each victim slot's map entry is looked up in loop 1, where the policy
  // takes its verdict on the live entry's flags, and snapshotted for loop
  // 2. Only dropped and destaged blocks leave the map: an S2S copy keeps
  // its entry, found again in loop 2 (its cache line still warm) and
  // repointed, cold and with no policy hook, at its segment-buffer ticket.
  // The SG's segments, census and live counts are reset wholesale at the
  // end, so loop 2 uncounts only what outlives the call: live_total_ and
  // the tenants' occupancy, in slot order, ahead of each shed decision.
  // Copies count back into their tenant's occupancy (`relive`) once every
  // decision is made.
  std::vector<BlockWrite> destages;
  std::vector<u64> relive(tenants_.size(), 0);

  for (u32 g = 0; g < sg.next_seg; ++g) {
    SegmentInfo& si = sg.segs[g];
    if (!si.written()) continue;
    const u32 nslots = static_cast<u32>(si.slot_lba.size());

    // Per-slot decision. Data is needed for destages and S2S copies; cold
    // clean blocks are simply dropped (§4.2). The keep-vs-evict verdict is
    // the eviction policy's call (paper = hot-flag second chance for clean,
    // unconditional copy for dirty; the modern policies also evict cold
    // dirty blocks, which destages them below) and is asked exactly once
    // here — keep_on_gc may transition policy state, and over_quota can
    // flip while loop 2 drains live_blocks, so re-deriving the decision
    // later is not allowed. S2D mode and quota sheds bypass the policy:
    // those are whole-victim decisions, not per-block ones.
    std::vector<char>& keepv = gc_keep_;
    std::vector<char>& lost = gc_lost_;
    std::vector<u64>& tag = gc_tag_;
    std::vector<MapEntry>& entry = gc_entry_;
    std::vector<SlotRead>& reads = reads_;
    keepv.assign(nslots, 0);
    lost.assign(nslots, 0);
    tag.assign(nslots, 0);
    entry.resize(nslots);
    reads.clear();
    for (u32 s = 0; s < nslots; ++s) {
      // The victim's blocks are scattered over the map: fetch ahead.
      if (s + kPrefetchSlots < nslots)
        map_.prefetch(si.slot_lba[s + kPrefetchSlots]);
      const u64 lba = si.slot_lba[s];
      if (lba == kDeadSlot) continue;
      MapEntry& e = map_.at(lba);
      // Over-quota tenants' blocks are shed even when hot: the quota
      // squeeze works by attrition through GC, never by bulk eviction.
      bool keep = false;
      if (!use_s2d && !over_quota(e.tenant))
        keep = eviction_->keep_on_gc(lba, e.flags);
      entry[s] = e;
      keepv[s] = keep ? 1 : 0;
      if (!e.dirty() && !keep) continue;
      const SlotAddr a = addr_of(v, g, s, si);
      reads.push_back({a.dev, a.block, v, g, s, s});
    }
    // Slot order is column-major, so each run of needed slots in a column
    // is one read command.
    t = std::max(t, read_slots(now, reads, tag, lost));

    for (u32 k = 0; k < nslots; ++k) {
      const u64 lba = si.slot_lba[k];
      if (lba == kDeadSlot) continue;
      const MapEntry& e = entry[k];
      live_total_--;
      tenants_[e.tenant].live_blocks--;
      // Copies are staged only; the seal_buffer drain loop that triggered
      // this reclaim writes them out (staging never re-enters a seal).
      const auto copy = [&](bool dirty) {
        stats_.gc_copy_blocks++;
        relive[e.tenant]++;
        const BlockWrite w{lba, tag[k], e.tenant, WriteCause::kGcRewrite};
        SegBuffer& buf = dirty ? dirty_buf_ : clean_buf_;
        append(buf, map_.at(lba), w, dirty ? policy::kFlagDirty : u8{0}, now);
      };
      if (lost[k]) {
        if (e.dirty()) extra_.lost_dirty_blocks++;
        map_.erase(lba);
        continue;
      }
      const bool shed = over_quota(e.tenant);
      if (e.dirty()) {
        // A squeezed tenant's dirty data is destaged rather than S2S-copied:
        // safe on primary, and its cache share shrinks. A policy-evicted
        // dirty block takes the same path — written back once instead of
        // recopied at every future reclaim.
        if (use_s2d || shed || !keepv[k]) {
          if (!use_s2d && shed) tenants_[e.tenant].gc_shed_blocks++;
          // A shed destage squeezes an over-quota tenant, not for space.
          destages.push_back({lba, tag[k], e.tenant,
                              shed && !use_s2d ? WriteCause::kQuotaShed
                                               : WriteCause::kDestage});
          map_.erase(lba);
        } else {
          copy(/*dirty=*/true);
        }
      } else if (keepv[k]) {
        copy(/*dirty=*/false);
      } else {
        if (shed && !use_s2d && e.hot()) tenants_[e.tenant].gc_shed_blocks++;
        stats_.dropped_clean_blocks++;
        map_.erase(lba);
      }
    }
  }

  // Destages: contiguous LBA runs become single primary-storage writes,
  // issued as background traffic (the real destager is a worker thread that
  // yields to foreground misses). Their completion times stay on the
  // background lane and must not feed back into SSD-side scheduling.
  const u32 destage_span =
      (!destages.empty() && span_ != nullptr && span_->sampling())
          ? span_->begin_span("src.destage", t)
          : obs::kNoSpan;
  const SimTime destaged_at = write_primary(t, destages, /*background=*/true);
  stats_.destage_blocks += destages.size();
  for (const BlockWrite& w : destages) tenants_[w.tenant].destage_blocks++;
  if (destage_span != obs::kNoSpan)
    span_->end_span(destage_span, destaged_at, destages.size());

  for (size_t t = 0; t < relive.size(); ++t)
    tenants_[t].live_blocks += relive[t];

  // The whole SG is dead: TRIM it so the SSDs reclaim the erase groups
  // without copying (the log-structured payoff, §4.1).
  for (auto* d : ssds_) {
    if (d->failed()) continue;
    auto r = d->trim(t, sg_base_block(v), cfg_.eg_blocks());
    if (r.ok()) t = std::max(t, r.done);
  }
  // The whole SG is garbage now: pending rebuild copies into it are stale.
  if (rebuild_ != nullptr)
    rebuild_->discard(sg_base_block(v), cfg_.eg_blocks());

  SgInfo fresh;
  fresh.segs.resize(cfg_.segments_per_sg());
  // The SG may be rewritten only once its dirty data is safe on primary
  // storage; until then, writes into it stall (back-pressure).
  fresh.ready_at = destaged_at;
  sgs_[v] = std::move(fresh);
  free_sgs_.push_back(v);
  in_gc_ = was_in_gc;
  if (span_ != nullptr)
    span_->event(use_s2d ? "src.sg_reclaim_s2d" : "src.sg_reclaim_s2s",
                 obs::kLaneSrc, now, t, v);
  if (reclaim_span != obs::kNoSpan) span_->end_span(reclaim_span, t, v);
  return t;
}

}  // namespace srcache::src
