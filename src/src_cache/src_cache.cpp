#include "src_cache/src_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/crc32c.hpp"
#include "common/runs.hpp"

namespace srcache::src {

namespace {
// CPU cost of staging one block into a segment buffer / serving from RAM.
constexpr SimTime kStageCost = 1 * sim::kUs;
constexpr SimTime kRamReadCost = 500 * sim::kNs;

using obs::WriteCause;

}  // namespace

const char* to_string(GcPolicy p) {
  return p == GcPolicy::kS2D ? "S2D" : "Sel-GC";
}
const char* to_string(VictimPolicy p) {
  switch (p) {
    case VictimPolicy::kFifo: return "FIFO";
    case VictimPolicy::kGreedy: return "Greedy";
  }
  return "?";
}
const char* to_string(CleanRedundancy c) {
  return c == CleanRedundancy::kPC ? "PC" : "NPC";
}
const char* to_string(FlushControl f) {
  return f == FlushControl::kPerSegment ? "per-segment" : "per-SG";
}

std::string SrcConfig::describe() const {
  std::string s = "SRC{";
  s += std::to_string(num_ssds) + " SSDs, EG ";
  s += std::to_string(erase_group_bytes / MiB) + "MiB, ";
  s += to_string(raid);
  s += ", ";
  s += to_string(clean_redundancy);
  s += ", ";
  s += to_string(gc);
  s += "/";
  s += to_string(victim);
  s += ", umax " + std::to_string(static_cast<int>(umax * 100)) + "%, flush ";
  s += to_string(flush_control);
  s += ", ";
  s += policy::to_string(eviction);
  s += "+";
  s += policy::to_string(admission);
  s += "}";
  return s;
}

SrcCache::SrcCache(const SrcConfig& cfg, std::vector<BlockDevice*> ssds,
                   BlockDevice* primary)
    : cfg_(cfg), layout_(cfg.layout()), ssds_(std::move(ssds)),
      primary_(primary) {
  cfg_.validate();
  if (ssds_.size() != cfg_.num_ssds)
    throw std::invalid_argument("SRC: device count != config");
  const u64 region_blocks = cfg_.region_bytes_per_ssd / kBlockSize;
  for (auto* d : ssds_) {
    if (d->capacity_blocks() < region_blocks)
      throw std::invalid_argument("SRC: SSD smaller than cache region");
  }
  sgs_.resize(cfg_.sg_count());
  for (auto& sg : sgs_) sg.segs.resize(cfg_.segments_per_sg());
  eviction_ = policy::make_eviction(cfg_.eviction, cfg_.capacity_blocks());
  admission_ = policy::make_admission(cfg_.admission, cfg_.capacity_blocks());
}

double SrcCache::utilization() const {
  const u64 cap = cfg_.capacity_blocks();
  return cap == 0 ? 0.0
                  : static_cast<double>(live_total_) / static_cast<double>(cap);
}

SrcCache::Residence SrcCache::residence(u64 lba) const {
  const MapEntry* e = map_.find(lba);
  if (e == nullptr) return Residence::kAbsent;
  if (e->buffered())
    return e->dirty() ? Residence::kDirtyBuffer : Residence::kCleanBuffer;
  return e->dirty() ? Residence::kCachedDirty : Residence::kCachedClean;
}

// --- lifecycle --------------------------------------------------------------

blockdev::Payload SrcCache::superblock_payload() const {
  return Superblock{.create_seq = 1,
                    .num_ssds = cfg_.num_ssds,
                    .erase_group_bytes = cfg_.erase_group_bytes,
                    .chunk_bytes = cfg_.chunk_bytes,
                    .region_bytes_per_ssd = cfg_.region_bytes_per_ssd,
                    .raid = layout_.raid,
                    .parity_for_clean = layout_.parity_for_clean}
      .serialize();
}

void SrcCache::write_meta(SimTime now, size_t d, u64 block,
                          const blockdev::Payload& payload, SimTime& done) {
  const auto r = ssds_[d]->write_payload(now, block, payload);
  if (!r.ok()) return;
  done = std::max(done, r.done);
  ledger_.add(static_cast<u32>(d), obs::kSharedTenant, WriteCause::kParity,
              blockdev::payload_blocks(payload) * kBlockSize);
}

SimTime SrcCache::format(SimTime now) {
  const auto payload = superblock_payload();
  SimTime done = now;
  for (size_t d = 0; d < ssds_.size(); ++d)
    write_meta(now, d, layout_.sg_base(0), payload, done);
  // SG 0 holds the superblock and is never written again (§4.1).
  sgs_[0].state = SgState::kSuper;
  free_sgs_.clear();
  for (u32 s = 1; s < cfg_.sg_count(); ++s) {
    sgs_[s] = SgInfo{};
    sgs_[s].segs.resize(cfg_.segments_per_sg());
    free_sgs_.push_back(s);
  }
  done = flush_all_ssds(done);
  return done;
}

SimTime SrcCache::flush_all_ssds(SimTime now) {
  SimTime done = now;
  for (auto* d : ssds_) {
    if (d->failed()) continue;
    auto r = d->flush(now);
    if (r.ok()) done = std::max(done, r.done);
  }
  extra_.flushes_issued++;
  if (span_ != nullptr) span_->event("src.flush", obs::kLaneSrc, now, done);
  return done;
}

void SrcCache::register_metrics(const obs::Scope& scope) {
  register_counters(scope, extra_, kExtraStatsFields);
  scope.counter_fn("segment_seals",
                   [this] { return extra_.segments_written; });
  scope.counter_fn("fetch_blocks", [this] { return stats_.fetch_blocks; });
  scope.counter_fn("destage_blocks", [this] { return stats_.destage_blocks; });
  scope.counter_fn("gc_copy_blocks", [this] { return stats_.gc_copy_blocks; });
  scope.counter_fn("app_flushes", [this] { return stats_.app_flushes; });
  scope.gauge_fn("utilization", [this] { return utilization(); });
  scope.gauge_fn("free_sgs",
                 [this] { return static_cast<double>(free_sgs_.size()); });
  scope.gauge_fn("cached_blocks",
                 [this] { return static_cast<double>(map_.size()); });
  // Segment-buffer occupancy (staged blocks and fill fraction): sampled over
  // time this shows the stage-seal-flush rhythm behind the flush plateaus.
  for (const SegBuffer* buf : {&dirty_buf_, &clean_buf_}) {
    const std::string kind = buf->dirty ? "dirty" : "clean";
    scope.gauge_fn(kind + "_buffer_blocks",
                   [buf] { return static_cast<double>(buf->size()); });
    scope.gauge_fn(kind + "_buffer_frac", [this, buf] {
      const u64 cap = layout_.data_slots(buf->dirty);
      return cap == 0 ? 0.0
                      : static_cast<double>(buf->size()) /
                            static_cast<double>(cap);
    });
  }
  // Policy tallies (src/policy). The lambdas read through the unique_ptrs
  // at snapshot time, so recover() swapping in fresh policies is safe.
  const obs::Scope ps = scope.scope("policy");
  ps.counter_fn("gc_kept", [this] { return eviction_->stats().gc_kept; });
  ps.counter_fn("gc_evicted",
                [this] { return eviction_->stats().gc_evicted; });
  ps.counter_fn("promotions",
                [this] { return eviction_->stats().promotions; });
  ps.counter_fn("ghost_hits",
                [this] { return eviction_->stats().ghost_hits; });
  ps.counter_fn("fills_admitted",
                [this] { return admission_->stats().admitted; });
  ps.counter_fn("fills_rejected",
                [this] { return admission_->stats().rejected; });
  ps.counter_fn("admit_ghost_hits",
                [this] { return admission_->stats().ghost_hits; });
  metrics_scope_ = scope;
  tenants_registered_ = 0;
  register_tenant_metrics();
}

void SrcCache::register_tenant_metrics() {
  // Per-tenant metrics appear lazily: tenants can be configured (or first
  // observed) after register_metrics ran.
  if (!metrics_scope_.has_value()) return;
  for (; tenants_registered_ < tenants_.size(); ++tenants_registered_) {
    const size_t t = tenants_registered_;
    const obs::Scope ts =
        metrics_scope_->scope("tenant." + std::to_string(t));
    ts.counter_fn("read_hit_blocks",
                  [this, t] { return tenants_[t].read_hit_blocks; });
    ts.counter_fn("read_miss_blocks",
                  [this, t] { return tenants_[t].read_miss_blocks; });
    ts.counter_fn("write_blocks",
                  [this, t] { return tenants_[t].write_blocks; });
    ts.counter_fn("fetch_bypass_blocks",
                  [this, t] { return tenants_[t].fetch_bypass_blocks; });
    ts.counter_fn("write_bypass_blocks",
                  [this, t] { return tenants_[t].write_bypass_blocks; });
    ts.counter_fn("gc_shed_blocks",
                  [this, t] { return tenants_[t].gc_shed_blocks; });
    ts.counter_fn("destage_blocks",
                  [this, t] { return tenants_[t].destage_blocks; });
    ts.gauge_fn("live_blocks", [this, t] {
      return static_cast<double>(tenants_[t].live_blocks);
    });
    ts.gauge_fn("quota_blocks", [this, t] {
      return static_cast<double>(tenants_[t].quota_blocks);
    });
  }
}

// --- tenants ----------------------------------------------------------------

u16 SrcCache::norm_tenant(u32 tenant) {
  if (tenant >= tenants_.size()) {
    if (quotas_enforced_) return static_cast<u16>(tenants_.size() - 1);
    tenants_.resize(std::min<u32>(tenant, 0xFFFF) + 1);
    register_tenant_metrics();
  }
  return static_cast<u16>(std::min<u32>(tenant, 0xFFFF));
}

bool SrcCache::over_quota(u16 tenant) const {
  if (!quotas_enforced_) return false;
  const TenantStats& t = tenants_[tenant];
  return t.live_blocks >= t.quota_blocks;
}

void SrcCache::census_add(SgInfo& sg, u16 tenant, u32 n) {
  if (tenant >= sg.live_by_tenant.size())
    sg.live_by_tenant.resize(tenant + 1, 0);
  sg.live_by_tenant[tenant] += n;
}

void SrcCache::census_sub(SgInfo& sg, u16 tenant, u32 n) {
  sg.live_by_tenant[tenant] -= n;
}

u64 SrcCache::reclaimable_live(const SgInfo& sg) const {
  u64 live = sg.live;
  if (!quotas_enforced_) return live;
  for (u16 t = 0; t < sg.live_by_tenant.size() && t < tenants_.size(); ++t) {
    if (over_quota(t)) live -= std::min<u64>(live, sg.live_by_tenant[t]);
  }
  return live;
}

void SrcCache::set_tenant_quotas(const std::vector<u64>& quotas) {
  if (quotas.empty()) throw std::invalid_argument("SRC: empty tenant quotas");
  if (quotas.size() > 0x10000)
    throw std::invalid_argument("SRC: too many tenants");
  if (quotas.size() > tenants_.size()) tenants_.resize(quotas.size());
  for (size_t t = 0; t < tenants_.size(); ++t)
    tenants_[t].quota_blocks = t < quotas.size() ? quotas[t] : 0;
  quotas_enforced_ = true;
  register_tenant_metrics();
}

// --- bookkeeping ------------------------------------------------------------

void SrcCache::invalidate_slot(const MapEntry& e) {
  if (e.buffered()) {
    SegBuffer& buf = e.dirty() ? dirty_buf_ : clean_buf_;
    buf.slots[buf.index(e.slot)].lba = kDeadSlot;
    buf.live--;
    return;
  }
  SgInfo& sg = sgs_[e.sg];
  SegmentInfo& si = sg.segs[e.seg];
  si.slot_lba[e.slot] = kDeadSlot;
  si.live--;
  sg.live--;
  census_sub(sg, e.tenant, 1);
  live_total_--;
}


// --- app entry points -------------------------------------------------------

SimTime SrcCache::submit(const cache::AppRequest& req) {
  maybe_timeout_partial(req.now);
  return req.is_write ? do_write(req) : do_read(req);
}

void SrcCache::maybe_timeout_partial(SimTime now) {
  // Partial-segment timeout (§4.1): if no write arrived for TWAIT and dirty
  // data is buffered, seal what we have to bound the loss window.
  if (dirty_buf_.size() == 0) return;
  if (now - last_dirty_stage_ <= cfg_.twait) return;
  seal_buffer(now, dirty_buf_, /*force_partial=*/true);
}

SimTime SrcCache::flush(SimTime now) {
  stats_.app_flushes++;
  // The reclaims this seal triggers destage instead of copying: a Sel-GC
  // copy staged after the seal took its entries would stay in RAM past the
  // flush, while its victim SG is trimmed.
  flushing_ = true;
  seal_buffer(now, dirty_buf_, /*force_partial=*/true);
  flushing_ = false;
  return flush_all_ssds(now);
}

SimTime SrcCache::throttle(SimTime now, SimTime ack) {
  while (!inflight_.empty() && inflight_.front() <= now) inflight_.pop_front();
  while (inflight_.size() >= kMaxInflightSegmentWrites) {
    ack = std::max(ack, inflight_.front());
    inflight_.pop_front();
  }
  return ack;
}

// --- write path -------------------------------------------------------------

void SrcCache::stage(u64 lba, u64 tag, u16 tenant, bool dirty,
                     WriteCause cause, SimTime now) {
  SegBuffer& buf = dirty ? dirty_buf_ : clean_buf_;
  const BlockWrite w{lba, tag, tenant, cause};
  if (MapEntry* e = map_.find(lba)) {
    // A fill raced with a write or a duplicate fetch: the cached copy wins.
    if (!dirty) return;
    tenants_[e->tenant].live_blocks--;  // ownership follows the last writer
    tenants_[tenant].live_blocks++;
    eviction_->on_access(e->flags);
    if (e->buffered() && e->dirty()) {
      buf.slots[buf.index(e->slot)] = w;  // in place
      e->tenant = tenant;
      e->flags |= policy::kFlagHot;
      return;
    }
    invalidate_slot(*e);
    // A rewrite makes the block hot.
    append(buf, *e, w, policy::kFlagDirty | policy::kFlagHot, now);
    return;
  }
  MapEntry& e = map_[lba];
  append(buf, e, w, dirty ? policy::kFlagDirty : u8{0}, now);
  tenants_[tenant].live_blocks++;
  eviction_->on_admit(lba, e.flags);
}

void SrcCache::append(SegBuffer& buf, MapEntry& e, const BlockWrite& w,
                      u8 flags, SimTime now) {
  e = {kBufferSg, 0, buf.next_ticket(), w.tenant,
       static_cast<u8>(flags | (e.flags & policy::kPolicyFlags))};
  buf.slots.push_back(w);
  buf.live++;
  if (buf.dirty) last_dirty_stage_ = now;
}

void SrcCache::drain_buffers(SimTime now) {
  seal_buffer(now, dirty_buf_, false);
  seal_buffer(now, clean_buf_, false);
}

SimTime SrcCache::write_primary(SimTime at, std::vector<BlockWrite>& writes,
                                bool background) {
  if (writes.empty()) return at;
  std::sort(writes.begin(), writes.end(),
            [](const BlockWrite& a, const BlockWrite& b) {
              return a.lba < b.lba;
            });
  primary_->set_background(background);
  SimTime done = at;
  std::vector<u64>& tags = run_buf_;
  const auto adjacent = [](const BlockWrite& a, const BlockWrite& b) {
    return b.lba == a.lba + 1;
  };
  common::for_each_run(writes, adjacent, [&](size_t i, size_t n) {
    tags.clear();
    for (size_t k = i; k < i + n; ++k) tags.push_back(writes[k].tag);
    const auto r =
        primary_->write(at, writes[i].lba, static_cast<u32>(n), tags);
    if (!r.ok()) return;
    done = std::max(done, r.done);
    for (size_t k = i; k < i + n; ++k)
      ledger_.add(obs::kPrimaryDevice, writes[k].tenant, writes[k].cause,
                  kBlockSize);
  });
  primary_->set_background(false);
  return done;
}

SimTime SrcCache::do_write(const cache::AppRequest& req) {
  const SimTime now = req.now;
  const u16 tenant = norm_tenant(req.tenant);
  stats_.app_write_ops++;
  stats_.app_write_blocks += req.nblocks;
  tenants_[tenant].write_blocks += req.nblocks;
  // Quota admission gate, write side: an over-quota tenant's NEW blocks go
  // straight to primary storage instead of staging, so its occupancy decays
  // toward the quota as GC drains what is already resident. Overwrites of
  // resident blocks still stage — bypassing those would leave stale data in
  // the cache — but they do not grow the footprint.
  bypass_.clear();
  for (u32 i = 0; i < req.nblocks; ++i) {
    const u64 lba = req.lba + i;
    const u64 tag = req.tags != nullptr
                        ? req.tags[i]
                        : blockdev::make_tag(lba, ++tag_version_);
    if (map_.contains(lba)) {
      stats_.write_hit_blocks++;
    } else {
      // A bypassed block is still a new-block write — it just was not
      // admitted. Counting it keeps hit/miss classification honest: the op
      // paid primary latency.
      stats_.write_new_blocks++;
      if (over_quota(tenant)) {
        tenants_[tenant].write_bypass_blocks++;
        bypass_.push_back({lba, tag, tenant, WriteCause::kQuotaShed});
        continue;
      }
    }
    stage(lba, tag, tenant, /*dirty=*/true, WriteCause::kUserWrite, now);
  }
  drain_buffers(now);
  // Writes are acknowledged once staged in the segment buffer (§4.1); the
  // in-flight throttle applies device back-pressure.
  SimTime ack = now + kStageCost * req.nblocks;
  // Bypassed blocks are acknowledged at primary speed (write-through): the
  // squeezed tenant feels HDD latency, which is exactly the cost its quota
  // says it has not earned the flash to avoid. They are issued after the
  // drain, behind any GC destages it triggered.
  ack = std::max(ack, write_primary(now, bypass_, /*background=*/false));
  return throttle(now, ack);
}

// --- compressed DRAM tier hand-off ------------------------------------------

SimTime SrcCache::tier_destage(SimTime now, std::span<const u64> lbas,
                               std::span<const u64> tags,
                               std::span<const u16> tenants) {
  // Destages carry dirty data that only the tier holds, so they stage
  // unconditionally — the quota gate applies to admissions, not durability.
  for (size_t i = 0; i < lbas.size(); ++i) {
    stage(lbas[i], tags[i], norm_tenant(tenants[i]), /*dirty=*/true,
          WriteCause::kTierDestage, now);
  }
  drain_buffers(now);
  return throttle(now, now + kStageCost * static_cast<SimTime>(lbas.size()));
}

SimTime SrcCache::tier_demote(SimTime now, u64 lba, u64 tag, u16 tenant) {
  stage(lba, tag, norm_tenant(tenant), /*dirty=*/false, WriteCause::kTierDemote,
        now);
  drain_buffers(now);
  return throttle(now, now + kStageCost);
}

bool SrcCache::hot_hint(u64 lba) const {
  const MapEntry* e = map_.find(lba);
  return e != nullptr && e->hot();
}

// --- segment sealing --------------------------------------------------------

u32 SrcCache::allocate_sg(SimTime now) {
  if (!in_gc_) ensure_free_sg(now);
  if (free_sgs_.empty()) reclaim_one(now, /*force_s2d=*/true);
  if (free_sgs_.empty())
    throw std::logic_error("SRC: no reclaimable segment group");
  const u32 sg = free_sgs_.front();
  free_sgs_.pop_front();
  sgs_[sg].state = SgState::kActive;
  sgs_[sg].next_seg = 0;
  return sg;
}

SimTime SrcCache::seal_buffer(SimTime now, SegBuffer& buf, bool force_partial) {
  const u64 cap = layout_.data_slots(buf.dirty);
  SimTime done = now;
  // Drain full segments; GC triggered by SG allocation below may append
  // further entries, which this loop absorbs.
  while (buf.size() >= cap)
    done = std::max(done, write_one_segment(now, buf, cap));
  if (force_partial && buf.size() != 0)
    done = std::max(done, write_one_segment(now, buf, buf.size()));
  return done;
}

SimTime SrcCache::write_one_segment(SimTime now, SegBuffer& buf, u64 count) {
  const u64 capacity = layout_.data_slots(buf.dirty);
  count = std::min<u64>({count, capacity, buf.size()});
  if (count == 0) return now;

  // Take the front `count` entries by value. What remains keeps its tickets,
  // so GC appends during SG allocation see a consistent buffer.
  buf.take_front(count, taken_);

  // Allocating the SG may run GC; by now the taken entries are private and
  // GC can only touch the buffer tail.
  if (active_sg_ == kBufferSg) active_sg_ = allocate_sg(now);
  SgInfo& sg = sgs_[active_sg_];
  // A freshly reclaimed SG is only writable once its destages reached
  // primary storage — destage pressure throttles foreground writes here.
  const SimTime issue = std::max(now, sg.ready_at);
  const u32 seg = sg.next_seg++;
  SegmentInfo& si = sg.segs[seg];

  si.generation = ++gen_seq_;
  si.sg = active_sg_;
  si.seg = seg;
  si.dirty = buf.dirty;
  si.redundant = layout_.redundant(buf.dirty);
  si.parity_col = layout_.parity_col(si.redundant, si.generation);
  si.slot_lba.assign(capacity, kDeadSlot);
  si.slot_crc.assign(capacity, 0);
  si.slot_tenant.assign(capacity, 0);
  si.live = 0;

  // Per-device tag images (device d's rows at image(d)). Slots are
  // column-major, so the stripe places each column once and its slots fill
  // consecutive rows. Slots past the taken entries are padding: dead, tag 0.
  const Stripe stripe = layout_.stripe(si);
  const u64 rows = layout_.rows();
  images_.assign(cfg_.num_ssds * rows, 0);
  const auto image = [&](size_t d) { return images_.data() + d * rows; };
  for (u32 first = 0; first < taken_.size(); first += rows) {
    const SlotPlace p = stripe.at(first / rows, 0);
    u64* const col = image(p.dev);
    u64* const mirror = p.mirror != kNoDev ? image(p.mirror) : nullptr;
    const u32 end =
        static_cast<u32>(std::min<u64>(first + rows, taken_.size()));
    for (u32 s = first; s < end; ++s) {
      const BlockWrite& w = taken_[s];
      col[s - first] = w.tag;
      if (mirror != nullptr) mirror[s - first] = w.tag;
      si.slot_lba[s] = w.lba;
      si.slot_tenant[s] = w.tenant;
      if (w.lba == kDeadSlot) continue;
      si.slot_crc[s] = common::crc32c_of(w.tag);
      // Relocate the mapping from the buffer to the sealed slot.
      place_slot(map_.at(w.lba), active_sg_, seg, s);
    }
  }
  if (stripe.parity()) {
    u64* parity = image(stripe.parity_dev);
    for (size_t d = 0; d < ssds_.size(); ++d) {
      if (d == stripe.parity_dev) continue;
      for (u64 r = 0; r < rows; ++r) parity[r] ^= image(d)[r];
    }
  }

  // Issue the stripe: MS + data + ME per SSD, all in parallel (§4.1).
  const u64 ms = layout_.ms_block(active_sg_, seg);
  const auto ms_payload = si.serialize(/*tail=*/false);
  const auto me_payload = si.serialize(/*tail=*/true);
  SimTime done = issue;
  const u32 fill_span = span_ != nullptr && span_->sampling()
                            ? span_->begin_span("src.segment_fill", issue)
                            : obs::kNoSpan;
  // Ledger attribution of one device's data chunk: every row of a data
  // column carries its staged entry's cause/tenant, even one invalidated
  // since staging (padding slots are layout overhead -> parity/shared);
  // mirror and parity columns are redundancy overhead wholesale. Each run
  // of rows with one (tenant, cause) is one ledger add.
  // Co-located with the device writes and gated on the same success
  // condition, so per-device ledger bytes stay exactly equal to
  // DeviceStats::write_blocks.
  const auto account_data_chunk = [&](size_t d) {
    const u32 dev32 = static_cast<u32>(d);
    const u64 col = stripe.column(d);
    if (col == kParityColumn || stripe.at(col, 0).dev != d) {
      ledger_.add(dev32, obs::kSharedTenant, WriteCause::kParity,
                  rows * kBlockSize);
      return;
    }
    const size_t first = std::min<size_t>(col * rows, taken_.size());
    const size_t end = std::min<size_t>((col + 1) * rows, taken_.size());
    const auto staged = std::span(taken_).subspan(first, end - first);
    const auto same_owner = [](const BlockWrite& a, const BlockWrite& b) {
      return a.tenant == b.tenant && a.cause == b.cause;
    };
    common::for_each_run(staged, same_owner, [&](size_t i, size_t n) {
      ledger_.add(dev32, staged[i].tenant, staged[i].cause, n * kBlockSize);
    });
    ledger_.add(dev32, obs::kSharedTenant, WriteCause::kParity,
                (rows - staged.size()) * kBlockSize);
  };
  for (size_t d = 0; d < ssds_.size(); ++d) {
    if (ssds_[d]->failed()) continue;
    write_meta(issue, d, ms, ms_payload, done);
    auto rdata = ssds_[d]->write(issue, stripe.data_block,
                                 static_cast<u32>(rows),
                                 std::span<const u64>(image(d), rows));
    if (rdata.ok()) {
      done = std::max(done, rdata.done);
      account_data_chunk(d);
    }
    write_meta(issue, d, layout_.me_block(active_sg_, seg), me_payload, done);
  }
  if (fill_span != obs::kNoSpan) span_->end_span(fill_span, done, count);
  // A fresh stripe just landed on every non-failed device, including a
  // rebuilding replacement: pending rebuild copies of this chunk are stale.
  if (rebuild_ != nullptr) rebuild_->discard(ms, layout_.chunk_blocks);

  extra_.segments_written++;
  if (span_ != nullptr)
    span_->event("src.segment_seal", obs::kLaneSrc, issue, done, count);
  if (buf.dirty) {
    extra_.dirty_segments++;
    if (count < capacity) extra_.partial_segments++;
  } else {
    extra_.clean_segments++;
  }

  const bool sg_full = sg.next_seg >= cfg_.segments_per_sg();
  if (sg_full || cfg_.flush_control == FlushControl::kPerSegment)
    done = flush_all_ssds(done);
  if (sg_full) {
    sg.state = SgState::kSealed;
    sg.seal_seq = ++seal_seq_;
    active_sg_ = kBufferSg;
  }
  inflight_.push_back(done);
  return done;
}

// --- read path --------------------------------------------------------------

SimTime SrcCache::do_read(const cache::AppRequest& req) {
  const SimTime now = req.now;
  const u16 tenant = norm_tenant(req.tenant);
  stats_.app_read_ops++;
  stats_.app_read_blocks += req.nblocks;
  SimTime done = now + kRamReadCost * req.nblocks;

  std::vector<SlotRead>& hits = reads_;
  std::vector<SlotRead>& dead = dead_reads_;
  hits.clear();
  dead.clear();
  std::vector<std::pair<u64, u32>> miss_runs;  // (lba, count)

  for (u32 i = 0; i < req.nblocks; ++i) {
    const u64 lba = req.lba + i;
    MapEntry* found = map_.find(lba);
    if (found == nullptr) {
      stats_.read_miss_blocks++;
      tenants_[tenant].read_miss_blocks++;
      if (!miss_runs.empty() &&
          miss_runs.back().first + miss_runs.back().second == lba) {
        miss_runs.back().second++;
      } else {
        miss_runs.emplace_back(lba, 1);
      }
      continue;
    }
    MapEntry& e = *found;
    e.flags |= policy::kFlagHot;
    eviction_->on_access(e.flags);
    stats_.read_hit_blocks++;
    tenants_[tenant].read_hit_blocks++;
    if (e.buffered()) {
      const SegBuffer& buf = e.dirty() ? dirty_buf_ : clean_buf_;
      if (req.tags_out != nullptr)
        req.tags_out[i] = buf.slots[buf.index(e.slot)].tag;
      continue;
    }
    const SlotPlace p = layout_.stripe(sgs_[e.sg].segs[e.seg]).place(e.slot);
    // A dead copy (failed, or a blank replacement not yet rebuilt here)
    // would serve garbage, not an error: such hits go straight to read_slot's
    // repair chain, in request order, ahead of the batched reads.
    (dev_dead(p.dev, p.block) ? dead : hits)
        .push_back({p.dev, p.block, e.sg, e.seg, e.slot, i});
  }

  const std::span<u64> tags(req.tags_out,
                            req.tags_out != nullptr ? req.nblocks : 0);
  done = std::max(done, read_slots(now, dead, tags, {}));
  // Batched cache-hit reads: contiguous per-device runs become one command.
  std::sort(hits.begin(), hits.end(), [](const SlotRead& a, const SlotRead& b) {
    return a.dev != b.dev ? a.dev < b.dev : a.block < b.block;
  });
  done = std::max(done, read_slots(now, hits, tags, {}));

  // Misses: fetch from primary storage into the staging/clean buffer (§4.1).
  std::vector<u64> fetched;
  for (const auto& [lba, cnt] : miss_runs) {
    fetched.assign(cnt, 0);
    const u32 fetch_span = span_ != nullptr && span_->sampling()
                               ? span_->begin_span("backend.fetch", now)
                               : obs::kNoSpan;
    auto r = primary_->read(now, lba, cnt, std::span<u64>(fetched.data(), cnt));
    if (fetch_span != obs::kNoSpan)
      span_->end_span(fetch_span, r.ok() ? r.done : now, cnt);
    if (!r.ok()) continue;
    done = std::max(done, r.done);
    stats_.fetch_blocks += cnt;
    if (req.tags_out != nullptr)
      for (u32 k = 0; k < cnt; ++k)
        req.tags_out[lba - req.lba + k] = fetched[k];
    // Quota admission gate: an over-quota tenant's misses are served from
    // primary but not cached, so its footprint shrinks by attrition.
    if (over_quota(tenant)) {
      tenants_[tenant].fetch_bypass_blocks += cnt;
    } else {
      // Policy admission gate, per block: a rejected fill is served through
      // without touching flash (the dominant NAND-write saving on
      // read-heavy traces). The reject itself is evidence — GhostAdmission
      // remembers the lba and admits its next miss.
      for (u32 k = 0; k < cnt; ++k) {
        if (!admission_->admit(lba + k)) continue;
        stage(lba + k, fetched[k], tenant, /*dirty=*/false,
              WriteCause::kMissFill, now);
      }
    }
  }
  // Clean segment writes happen off the critical path; back-pressure only.
  drain_buffers(now);
  return throttle(now, done);
}

SimTime SrcCache::read_slots(SimTime now, std::span<const SlotRead> reads,
                             std::span<u64> tags, std::span<char> lost) {
  SimTime done = now;
  const auto adjacent = [](const SlotRead& a, const SlotRead& b) {
    return b.dev == a.dev && b.block == a.block + 1;
  };
  common::for_each_run(reads, adjacent, [&](size_t i, size_t n) {
    const std::span<const SlotRead> run = reads.subspan(i, n);
    bool ok = std::none_of(run.begin(), run.end(), [&](const SlotRead& r) {
      return dev_dead(r.dev, r.block);
    });
    if (ok) {
      run_buf_.resize(n);
      const auto r = ssds_[run[0].dev]->read(now, run[0].block,
                                             static_cast<u32>(n), run_buf_);
      ok = r.ok();
      if (ok) done = std::max(done, r.done);
      for (size_t k = 0; k < n && ok && cfg_.verify_checksums; ++k) {
        const SegmentInfo& si = sgs_[run[k].sg].segs[run[k].seg];
        ok = common::crc32c_of(run_buf_[k]) == si.slot_crc[run[k].slot];
      }
    }
    for (size_t k = 0; k < n; ++k) {
      const SlotRead& r = run[k];
      if (ok) {
        if (!tags.empty()) tags[r.idx] = run_buf_[k];
        continue;
      }
      const auto rec = read_slot(now, r.sg, r.seg, r.slot, done);
      if (rec.is_ok() && !tags.empty()) tags[r.idx] = rec.value();
      if (!rec.is_ok() && !lost.empty()) lost[r.idx] = 1;
    }
  });
  return done;
}

Result<u64> SrcCache::read_slot(SimTime now, u32 sg, u32 seg, u32 slot,
                                SimTime& done) {
  const SegmentInfo& si = sgs_[sg].segs[seg];
  const u64 lba = si.slot_lba[slot];
  const Stripe stripe = layout_.stripe(si);
  const SlotPlace a = stripe.place(slot);
  const auto verified = [&](u64 tag) {
    return !cfg_.verify_checksums ||
           common::crc32c_of(tag) == si.slot_crc[slot];
  };
  const auto trace = [&](const char* what) {
    if (span_ != nullptr) span_->event(what, obs::kLaneSrc, now, now, lba);
  };
  u64 tag = 0;
  if (!dev_dead(a.dev, a.block)) {
    const auto r = ssds_[a.dev]->read(now, a.block, 1, std::span<u64>(&tag, 1));
    if (r.ok() && verified(tag)) {
      done = std::max(done, r.done);
      return tag;
    }
    if (note_bad_read(a.dev, a.block, r.error)) {
      done = std::max(done, r.done);
      trace(r.ok() ? "src.checksum_error" : "src.media_error");
    }
  }
  // Mirror copy (RAID-1).
  if (a.mirror != kNoDev && !dev_dead(a.mirror, a.block)) {
    const auto r =
        ssds_[a.mirror]->read(now, a.block, 1, std::span<u64>(&tag, 1));
    if (r.ok() && verified(tag)) {
      done = std::max(done, r.done);
      extra_.parity_repairs++;
      rewrite_slot(now, a, si.slot_tenant[slot], tag);
      return tag;
    }
    note_bad_read(a.mirror, a.block, r.error);
  }
  // Parity reconstruction across the stripe row.
  if (stripe.parity()) {
    SimTime t = now;
    const auto rec = reconstruct_from_stripe(now, a, t);
    if (rec.is_ok() && verified(rec.value())) {
      done = std::max(done, t);
      extra_.parity_repairs++;
      trace("src.parity_repair");
      rewrite_slot(now, a, si.slot_tenant[slot], rec.value());
      return rec.value();
    }
  }
  // Clean data can always be refetched from primary storage (§4.3).
  if (!si.dirty && lba != kDeadSlot) {
    const auto r = primary_->read(now, lba, 1, std::span<u64>(&tag, 1));
    if (r.ok()) {
      done = std::max(done, r.done);
      extra_.refetch_repairs++;
      rewrite_slot(now, a, si.slot_tenant[slot], tag);
      trace("src.refetch_repair");
      return tag;
    }
  }
  extra_.unrecoverable_blocks++;
  trace("src.unrecoverable");
  return Status(ErrorCode::kUnrecoverable, "cached block lost");
}

void SrcCache::rewrite_slot(SimTime now, const SlotPlace& a, u16 tenant,
                            u64 tag) {
  // Overwriting the bad copy makes the repair stick: remap-on-write clears
  // a latent sector error and the good tag replaces a corrupt one (without
  // it every later read re-pays the repair).
  if (ssds_[a.dev]->failed()) return;
  const auto r =
      ssds_[a.dev]->write(now, a.block, 1, std::span<const u64>(&tag, 1));
  if (r.ok())
    ledger_.add(static_cast<u32>(a.dev), tenant, WriteCause::kRepairRemap,
                kBlockSize);
  if (fault_ledger_ != nullptr)
    fault_ledger_->record_repaired(static_cast<int>(a.dev), a.block);
}

bool SrcCache::note_bad_read(size_t dev, u64 block, ErrorCode error) {
  if (error == ErrorCode::kOk) {
    extra_.checksum_errors++;
  } else if (error == ErrorCode::kMediaError) {
    extra_.media_errors++;
  } else {
    return false;
  }
  if (fault_ledger_ != nullptr)
    fault_ledger_->record_detected(static_cast<int>(dev), block);
  return true;
}

Result<u64> SrcCache::reconstruct_from_stripe(SimTime now,
                                              const SlotPlace& target,
                                              SimTime& done) {
  const u64 block = target.block;  // every device holds the row here
  u64 acc = 0;
  SimTime t = now;
  for (size_t d = 0; d < ssds_.size(); ++d) {
    if (d == target.dev) continue;
    if (dev_dead(d, block))
      return Status(ErrorCode::kDeviceFailed, "double failure in stripe");
    u64 tag = 0;
    const auto r = ssds_[d]->read(now, block, 1, std::span<u64>(&tag, 1));
    if (!r.ok()) {
      note_bad_read(d, block, r.error);
      return Status(r.error);
    }
    acc ^= tag;
    t = std::max(t, r.done);
  }
  done = std::max(done, t);
  return acc;
}

}  // namespace srcache::src
