// Crash recovery, failure handling, and internal-invariant auditing (§4.1).
#include <algorithm>
#include <optional>

#include "common/crc32c.hpp"
#include "fault/fault_injector.hpp"
#include "src_cache/src_cache.hpp"

namespace srcache::src {

Status SrcCache::recover(SimTime now, SimTime* done_out) {
  SimTime t = now;

  // 1. Superblock: first valid copy wins (it is replicated on every SSD).
  std::optional<Superblock> sb;
  for (auto* d : ssds_) {
    if (d->failed()) continue;
    SimTime rt = now;
    auto p = d->read_payload(now, layout_.sg_base(0), &rt);
    t = std::max(t, rt);
    if (!p.is_ok()) continue;
    sb = Superblock::deserialize(p.value());
    if (sb.has_value()) break;
  }
  if (!sb.has_value())
    return Status(ErrorCode::kCorrupted, "no valid superblock");
  if (sb->num_ssds != cfg_.num_ssds ||
      sb->erase_group_bytes != cfg_.erase_group_bytes ||
      sb->chunk_bytes != cfg_.chunk_bytes ||
      sb->region_bytes_per_ssd != cfg_.region_bytes_per_ssd) {
    return Status(ErrorCode::kInvalidArgument,
                  "superblock geometry does not match configuration");
  }

  // 2. Reset volatile state. Anything that was only in the segment buffers
  // is gone — that is the bounded TWAIT loss window the paper accepts.
  map_.clear();
  free_sgs_.clear();
  dirty_buf_.clear();
  clean_buf_.clear();
  inflight_.clear();
  active_sg_ = kBufferSg;
  live_total_ = 0;
  gen_seq_ = 0;
  seal_seq_ = 0;
  for (TenantStats& ts : tenants_) ts.live_blocks = 0;
  // Policy state is volatile: start cold. The entries step 3 rebuilds
  // carry no policy bits, as if every survivor had just been admitted.
  eviction_ = policy::make_eviction(cfg_.eviction, cfg_.capacity_blocks());
  admission_ = policy::make_admission(cfg_.admission, cfg_.capacity_blocks());

  // 3. Scan every segment's MS/ME pairs on every live SSD (§4.1 failure
  // handling). A seal writes MS, data and ME one SSD after another, so a
  // segment is kept only if its valid copies agree and the SSDs lacking a
  // pair are few enough to rebuild; any other is torn and discarded. A kept
  // image becomes its segment's record, and its live slots enter the map
  // as the scan meets them: a block already mapped keeps the newer copy (a
  // reused SG can hold a newer copy than a higher-numbered one), and the
  // older copy's slot is marked dead.
  const size_t n = ssds_.size();
  std::vector<char> lacking(n);  // per SSD: no valid MS/ME pair
  for (u32 s = 1; s < cfg_.sg_count(); ++s) {
    SgInfo fresh;
    fresh.segs.resize(cfg_.segments_per_sg());
    sgs_[s] = std::move(fresh);
    SgInfo& sg = sgs_[s];

    u32 last_valid = 0;
    bool any_valid = false;
    for (u32 g = 0; g < cfg_.segments_per_sg(); ++g) {
      std::optional<SegmentMeta> ms;
      bool agree = true;
      for (size_t d = 0; d < n; ++d) {
        lacking[d] = 0;
        if (ssds_[d]->failed()) continue;
        for (const u64 b : {layout_.ms_block(s, g), layout_.me_block(s, g)}) {
          SimTime rt = now;
          auto p = ssds_[d]->read_payload(now, b, &rt);
          t = std::max(t, rt);
          auto copy = p.is_ok() ? SegmentMeta::deserialize(p.value())
                                : std::nullopt;
          if (!copy.has_value()) {
            lacking[d] = 1;
          } else if (!ms.has_value()) {
            ms = std::move(copy);
          } else {
            agree = agree && copy->generation == ms->generation &&
                    copy->sg == ms->sg && copy->seg == ms->seg;
          }
        }
      }
      if (!ms.has_value()) continue;  // never written, or trimmed
      if (!agree || !ms->written() || ms->sg != s || ms->seg != g ||
          !layout_.stripe(*ms).rebuildable(lacking)) {
        extra_.torn_segments_discarded++;
        continue;
      }

      SegmentInfo& si = sg.segs[g];
      static_cast<SegmentMeta&>(si) = std::move(*ms);
      for (u32 slot = 0; slot < si.slot_lba.size(); ++slot) {
        si.slot_tenant[slot] = norm_tenant(si.slot_tenant[slot]);
        const u64 lba = si.slot_lba[slot];
        if (lba == kDeadSlot) continue;
        MapEntry* e = map_.find(lba);
        if (e == nullptr) {
          e = &map_[lba];
        } else if (sgs_[e->sg].segs[e->seg].generation >= si.generation) {
          si.slot_lba[slot] = kDeadSlot;  // superseded by a newer segment
          continue;
        } else {
          invalidate_slot(*e);  // this copy supersedes the mapped one
          tenants_[e->tenant].live_blocks--;
        }
        *e = MapEntry{};
        e->tenant = si.slot_tenant[slot];
        e->flags = si.dirty ? policy::kFlagDirty : 0;
        place_slot(*e, s, g, slot);
        tenants_[e->tenant].live_blocks++;
      }
      gen_seq_ = std::max(gen_seq_, si.generation);
      last_valid = g;
      any_valid = true;
    }

    if (!any_valid) {
      sg.state = SgState::kFree;
      free_sgs_.push_back(s);
    } else {
      // Partially-filled SGs are sealed conservatively; the unwritten tail
      // is reclaimed with the SG.
      sg.next_seg = last_valid + 1;
      sg.state = SgState::kSealed;
      u64 max_gen = 0;
      for (const auto& si : sg.segs) max_gen = std::max(max_gen, si.generation);
      sg.seal_seq = max_gen;
    }
  }
  sgs_[0].state = SgState::kSuper;
  seal_seq_ = gen_seq_;

  if (done_out != nullptr) *done_out = t;
  return Status::ok();
}

void wire_faults(SrcCache& cache, fault::FaultInjector& inj,
                 raid::RebuildManager* rebuild) {
  cache.set_fault_ledger(&inj.ledger());
  inj.set_failure_callback([&cache, rebuild](size_t dev, SimTime t) {
    cache.on_ssd_failure(dev, t);
    if (rebuild != nullptr) rebuild->on_device_failed(dev, t);
  });
  if (rebuild == nullptr) return;
  // SRC-aware reconstruction: the live-segment map is the extent source
  // (trimmed/invalid stripes are skipped), and blocks a second failure
  // makes unrecoverable are dropped and counted.
  rebuild->set_extent_source(
      [&cache](size_t dev) { return cache.rebuild_extents(dev); });
  rebuild->set_abort_callback(
      [&cache](size_t dev, const auto& lost, SimTime t) {
        cache.on_rebuild_lost(dev, lost, t);
      });
  rebuild->set_provenance(&cache.mutable_provenance());
  rebuild->set_fault_ledger(&inj.ledger());
  cache.set_rebuild(rebuild);
  inj.set_replace_callback([rebuild](size_t dev, SimTime t) {
    rebuild->on_device_replaced(dev, t);
  });
  inj.set_spare_callback([rebuild](u32 n) { rebuild->add_spares(n); });
}

void SrcCache::on_ssd_failure(size_t ssd, SimTime now) {
  // Fail-stop handling (§4.3): parity-protected blocks stay cached and are
  // reconstructed on access (even after a second failure); mirrored ones
  // are dropped once both copies are gone; unprotected ones on `ssd` are
  // dropped — clean blocks refetch on the next miss, dirty ones (RAID-0
  // only) are lost.
  if (span_ != nullptr)
    span_->event("src.ssd_failure", obs::kLaneSrc, now, now, ssd);
  std::vector<u64> to_drop;
  for (const auto& [lba, e] : map_) {
    if (e.buffered()) continue;
    const Stripe stripe = layout_.stripe(sgs_[e.sg].segs[e.seg]);
    if (stripe.parity()) continue;
    const SlotPlace p = stripe.place(e.slot);
    if (p.dev != ssd && p.mirror != ssd) continue;
    if (p.mirror != kNoDev &&
        !(ssds_[p.dev]->failed() && ssds_[p.mirror]->failed()))
      continue;
    to_drop.push_back(lba);
  }
  drop_lost(to_drop);
}

void SrcCache::drop_lost(const std::vector<u64>& lbas) {
  for (u64 lba : lbas) {
    const MapEntry e = map_.at(lba);
    invalidate_slot(e);
    map_.erase(lba);
    tenants_[e.tenant].live_blocks--;
    if (e.dirty()) {
      extra_.lost_dirty_blocks++;
    } else {
      extra_.lost_clean_blocks++;
    }
  }
}

std::vector<raid::RebuildExtent> SrcCache::rebuild_extents(size_t dev) const {
  std::vector<raid::RebuildExtent> ext;
  const u64 rows = layout_.rows();

  // Superblock replica (SG 0): rewritten from configuration — it is pure
  // metadata and every copy is identical.
  ext.push_back({layout_.sg_base(0), 1, raid::RebuildHow::kMetadata, kNoDev,
                 superblock_payload()});

  for (u32 s = 1; s < cfg_.sg_count(); ++s) {
    const SgInfo& sg = sgs_[s];
    if (sg.state == SgState::kFree) continue;
    for (u32 g = 0; g < sg.segs.size(); ++g) {
      const SegmentInfo& si = sg.segs[g];
      if (!si.written()) continue;
      // MS/ME replicas are rewritten from the in-RAM record (invalidated
      // slots come back as dead, which only sharpens a later recovery
      // scan).
      ext.push_back({layout_.ms_block(s, g), kSummaryBlocks,
                     raid::RebuildHow::kMetadata, kNoDev,
                     si.serialize(/*tail=*/false)});
      // Data rows decode only where the stripe carries redundancy. NPC
      // clean rows were dropped from the map at fail time: nothing live to
      // restore, the rebuilder skips the whole run.
      const Stripe stripe = layout_.stripe(si);
      if (stripe.mirrored()) {
        const SlotPlace p = stripe.at(stripe.column(dev), 0);
        ext.push_back({stripe.data_block, rows, raid::RebuildHow::kMirror,
                       p.dev == dev ? p.mirror : p.dev, nullptr});
      } else if (stripe.parity()) {
        ext.push_back({stripe.data_block, rows, raid::RebuildHow::kParityXor,
                       kNoDev, nullptr});
      }
      ext.push_back({layout_.me_block(s, g), kSummaryBlocks,
                     raid::RebuildHow::kMetadata, kNoDev,
                     si.serialize(/*tail=*/true)});
    }
  }
  return ext;
}

void SrcCache::on_rebuild_lost(size_t dev,
                               const std::vector<raid::RebuildExtent>& lost,
                               SimTime now) {
  const auto in_lost = [&lost](u64 b) {
    for (const raid::RebuildExtent& ex : lost)
      if (b >= ex.block && b < ex.block + ex.count) return true;
    return false;
  };
  std::vector<u64> to_drop;
  for (const auto& [lba, e] : map_) {
    if (e.buffered()) continue;
    const SlotPlace p = layout_.stripe(sgs_[e.sg].segs[e.seg]).place(e.slot);
    const bool here = p.dev == dev || p.mirror == dev;
    if (!here || !in_lost(p.block)) continue;
    // The copy on `dev` is gone for good; the block survives only if some
    // other replica can still serve it.
    const bool survivor =
        (p.dev != dev && !dev_dead(p.dev, p.block)) ||
        (p.mirror != kNoDev && p.mirror != dev && !dev_dead(p.mirror, p.block));
    if (!survivor) to_drop.push_back(lba);
  }
  drop_lost(to_drop);
  if (span_ != nullptr)
    span_->event("src.rebuild_lost", obs::kLaneSrc, now, now, to_drop.size());
}

SrcCache::ScrubReport SrcCache::scrub(SimTime now, SimTime* done) {
  ScrubReport rep;
  const auto before = extra_;
  SimTime t = now;
  for (u32 s = 1; s < cfg_.sg_count(); ++s) {
    const SgInfo& sg = sgs_[s];
    for (u32 g = 0; g < sg.next_seg; ++g) {
      const SegmentInfo& si = sg.segs[g];
      if (!si.written()) continue;
      for (u32 slot = 0; slot < si.slot_lba.size(); ++slot) {
        if (si.slot_lba[slot] == kDeadSlot) continue;
        ++rep.scanned;
        const SimTime issue = t;  // each read waits for the previous one
        (void)read_slot(issue, s, g, slot, t);
      }
    }
  }
  rep.repaired = extra_.parity_repairs - before.parity_repairs;
  rep.refetched = extra_.refetch_repairs - before.refetch_repairs;
  rep.unrecoverable = extra_.unrecoverable_blocks - before.unrecoverable_blocks;
  if (done != nullptr) *done = t;
  return rep;
}

Status SrcCache::verify_consistency() const {
  u64 live_on_ssd = 0;
  for (u32 s = 0; s < sgs_.size(); ++s) {
    const SgInfo& sg = sgs_[s];
    u64 sg_live = 0;
    for (u32 g = 0; g < sg.segs.size(); ++g) {
      const SegmentInfo& si = sg.segs[g];
      if (!si.written()) {
        if (si.live != 0)
          return Status(ErrorCode::kCorrupted, "empty segment with live count");
        continue;
      }
      u64 seg_live = 0;
      for (u32 slot = 0; slot < si.slot_lba.size(); ++slot) {
        const u64 lba = si.slot_lba[slot];
        if (lba == kDeadSlot) continue;
        ++seg_live;
        const MapEntry* found = map_.find(lba);
        if (found == nullptr)
          return Status(ErrorCode::kCorrupted, "live slot without map entry");
        const MapEntry& e = *found;
        if (e.buffered() || e.sg != s || e.seg != g || e.slot != slot)
          return Status(ErrorCode::kCorrupted, "map entry does not point back");
        if (e.dirty() != si.dirty)
          return Status(ErrorCode::kCorrupted, "dirty flag mismatch");
      }
      if (seg_live != si.live)
        return Status(ErrorCode::kCorrupted, "segment live count drift");
      sg_live += seg_live;
    }
    if (sg_live != sg.live)
      return Status(ErrorCode::kCorrupted, "SG live count drift");
    live_on_ssd += sg_live;
  }
  if (live_on_ssd != live_total_)
    return Status(ErrorCode::kCorrupted, "global live count drift");

  u64 buffered = 0;
  std::vector<u64> tenant_live(tenants_.size(), 0);
  for (const SegBuffer* buf : {&dirty_buf_, &clean_buf_}) {
    u64 live = 0;
    for (size_t i = buf->head; i < buf->slots.size(); ++i) {
      const BlockWrite& w = buf->slots[i];
      if (w.lba == kDeadSlot) continue;
      ++live;
      const MapEntry* e = map_.find(w.lba);
      if (e == nullptr || !e->buffered() ||
          e->dirty() != buf->dirty || buf->index(e->slot) != i)
        return Status(ErrorCode::kCorrupted,
                      "buffered block's map entry does not point back");
      if (w.tenant >= tenant_live.size())
        return Status(ErrorCode::kCorrupted, "buffered tenant out of range");
      tenant_live[w.tenant]++;
    }
    if (live != buf->live)
      return Status(ErrorCode::kCorrupted, "buffer live count drift");
    buffered += live;
  }
  if (map_.size() != live_on_ssd + buffered)
    return Status(ErrorCode::kCorrupted, "map size != live blocks");

  // Per-tenant accounting: SG censuses and buffers must add up to each
  // tenant's occupancy.
  for (const SgInfo& sg : sgs_) {
    u64 census = 0;
    for (size_t t = 0; t < sg.live_by_tenant.size(); ++t) {
      if (t >= tenant_live.size() && sg.live_by_tenant[t] != 0)
        return Status(ErrorCode::kCorrupted, "SG census tenant out of range");
      if (t < tenant_live.size()) tenant_live[t] += sg.live_by_tenant[t];
      census += sg.live_by_tenant[t];
    }
    if (census != sg.live)
      return Status(ErrorCode::kCorrupted, "SG tenant census drift");
  }
  for (size_t t = 0; t < tenants_.size(); ++t) {
    if (tenant_live[t] != tenants_[t].live_blocks)
      return Status(ErrorCode::kCorrupted, "tenant occupancy drift");
  }
  return Status::ok();
}

}  // namespace srcache::src
