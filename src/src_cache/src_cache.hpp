// SRC — SSD RAID as a Cache (the paper's contribution, §4).
//
// A write-back block cache over an array of commodity SSDs organised as a
// log of *segment groups* (SGs). Each SG spans all SSDs and is sized to the
// devices' erase group; segments (chunk × num_ssds) are written whole —
// data, MS/ME metadata blocks and parity in one stripe — so the SSDs see
// only large sequential writes and whole-SG TRIMs, and the RAID layer never
// needs a read-modify-write.
//
// Implemented design space (Table 7): RAID-0/1/4/5 stripe formation,
// PC/NPC clean-data redundancy, S2D vs Sel-GC reclamation with FIFO/Greedy
// victim selection and the UMAX threshold, flush per segment vs per SG,
// partial-segment timeout, checksum verification with parity / refetch
// repair, crash recovery from MS/ME generation matching, and fail-stop SSD
// handling.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "block/block_device.hpp"
#include "cache/cache_device.hpp"
#include "common/flat_map.hpp"
#include "fault/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/span.hpp"
#include "raid/rebuild.hpp"
#include "src_cache/segment_meta.hpp"
#include "src_cache/src_config.hpp"

namespace srcache::fault {
class FaultInjector;
}  // namespace srcache::fault

namespace srcache::src {

using blockdev::BlockDevice;
using sim::SimTime;

class SrcCache final : public cache::CacheDevice {
 public:
  // Segment writes allowed in flight before write acks are throttled.
  static constexpr u32 kMaxInflightSegmentWrites = 4;
  // Free segment groups maintained by GC.
  static constexpr u32 kFreeSgReserve = 2;

  // Counters beyond the generic CacheStats.
  struct ExtraStats {
    u64 segments_written = 0;
    u64 partial_segments = 0;
    u64 clean_segments = 0;
    u64 dirty_segments = 0;
    u64 sg_reclaims = 0;
    u64 s2d_reclaims = 0;
    u64 s2s_reclaims = 0;
    u64 flushes_issued = 0;      // flush commands SRC sent to the SSDs
    u64 checksum_errors = 0;
    u64 media_errors = 0;        // device-reported latent sector errors
    u64 parity_repairs = 0;
    u64 refetch_repairs = 0;
    u64 unrecoverable_blocks = 0;
    u64 lost_clean_blocks = 0;   // dropped on SSD failure (NPC mode)
    u64 lost_dirty_blocks = 0;   // data loss (RAID-0 only)
    u64 torn_segments_discarded = 0;  // MS/ME generation mismatch in recover
  };

  enum class Residence {
    kAbsent,
    kDirtyBuffer,
    kCleanBuffer,
    kCachedDirty,
    kCachedClean,
  };

  // Per-tenant accounting. Slot 0 always exists; set_tenant_quotas (or a
  // request carrying a new tenant id) grows the vector.
  struct TenantStats {
    u64 read_hit_blocks = 0;
    u64 read_miss_blocks = 0;
    u64 write_blocks = 0;
    u64 fetch_bypass_blocks = 0;  // misses served but not admitted (over quota)
    u64 write_bypass_blocks = 0;  // new writes sent to primary (over quota)
    u64 gc_shed_blocks = 0;       // blocks GC would have kept, shed over quota
    u64 destage_blocks = 0;
    u64 live_blocks = 0;   // current occupancy, buffers included
    u64 quota_blocks = 0;  // enforced share (0 while unmanaged)
  };

  // `ssds` are borrowed and must each expose at least the region's blocks,
  // which start at block 0. `primary` is the backing store.
  SrcCache(const SrcConfig& cfg, std::vector<BlockDevice*> ssds,
           BlockDevice* primary);

  // Initializes an empty cache: writes the superblock into SG 0 (§4.1).
  SimTime format(SimTime now);

  // Rebuilds the in-memory state from on-SSD metadata after a crash:
  // validates the superblock, scans every segment's MS/ME pair on every
  // live SSD, keeps segments whose copies agree and whose missing pairs
  // the stripe's redundancy covers, newest generation wins per LBA.
  Status recover(SimTime now, SimTime* done = nullptr);

  SimTime submit(const cache::AppRequest& req) override;
  SimTime flush(SimTime now) override;
  [[nodiscard]] const cache::CacheStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] u64 cached_blocks() const override { return map_.size(); }

  [[nodiscard]] const SrcConfig& config() const { return cfg_; }
  [[nodiscard]] const ExtraStats& extra() const { return extra_; }

  // Multi-tenant capacity steering. Quotas (blocks per tenant) are soft
  // targets enforced without eviction storms: an over-quota tenant's misses
  // are served but not admitted, GC victim selection favours SGs rich in its
  // blocks, and Sel-GC sheds (destages or drops) its blocks instead of
  // keeping them — the tenant drains by attrition. Typically driven by
  // adapt::AdaptiveController at epoch boundaries.
  void set_tenant_quotas(const std::vector<u64>& quotas);
  [[nodiscard]] const std::vector<TenantStats>& tenant_stats() const {
    return tenants_;
  }
  [[nodiscard]] double utilization() const;
  [[nodiscard]] u64 free_sg_count() const { return free_sgs_.size(); }
  [[nodiscard]] Residence residence(u64 lba) const;

  // Reacts to SSD `ssd` fail-stopping at `now`: drops unprotected blocks,
  // keeps parity-protected ones for on-the-fly reconstruction (§4.3).
  void on_ssd_failure(size_t ssd, SimTime now);

  // --- online rebuild (raid/rebuild.hpp) ---
  // Live-segment map export: the extents a replaced SSD must be rebuilt
  // from, in device-block order. MS/ME and superblock replicas are
  // rewritten from in-RAM state; data rows decode via mirror or parity.
  // Rows without redundancy (NPC clean segments) were already dropped at
  // fail time and are skipped — the SRC-aware saving over a blind
  // full-device sweep.
  [[nodiscard]] std::vector<raid::RebuildExtent> rebuild_extents(
      size_t dev) const;
  // Attaches the rebuild engine: its mask diverts reads of not-yet-rebuilt
  // blocks off the blank replacement, and segment seals / SG trims discard
  // stale pending stripes. Wire on_rebuild_lost to its abort callback and
  // rebuild_extents as its extent source.
  void set_rebuild(raid::RebuildManager* mgr) { rebuild_ = mgr; }
  // A second failure at `now` made `lost` ranges of `dev` unreconstructable:
  // drops the cached blocks addressed there, counted lost, dirty or clean.
  void on_rebuild_lost(size_t dev, const std::vector<raid::RebuildExtent>& lost,
                       SimTime now);

  // Proactive integrity scrub: reads and checksum-verifies every live
  // cached block, repairing through parity/mirror/refetch as on the read
  // path (§4.1). Returns per-outcome counts.
  struct ScrubReport {
    u64 scanned = 0;
    u64 repaired = 0;       // parity/mirror reconstructions
    u64 refetched = 0;      // clean blocks re-read from primary
    u64 unrecoverable = 0;  // lost (RAID-0 dirty only)
  };
  ScrubReport scrub(SimTime now, SimTime* done = nullptr);

  // Internal-invariant audit for tests: mapping table vs segment census vs
  // live counters. Returns the first violated invariant.
  [[nodiscard]] Status verify_consistency() const;

  // --- compressed DRAM tier hand-off (src/tier) ---
  // Dirty blocks destaged by the tier enter the normal dirty staging path
  // under the kTierDestage provenance cause; clean blocks demoted on tier
  // eviction stage as clean fills under kTierDemote (a no-op when the block
  // is already resident — the cached copy wins). Both return the ack time
  // after draining full segments and applying the in-flight throttle.
  SimTime tier_destage(SimTime now, std::span<const u64> lbas,
                       std::span<const u64> tags,
                       std::span<const u16> tenants);
  SimTime tier_demote(SimTime now, u64 lba, u64 tag, u16 tenant);
  // Promotion hint for the tier: true when the block is resident here and
  // marked hot (recently re-accessed), i.e. worth holding in DRAM too.
  [[nodiscard]] bool hot_hint(u64 lba) const;

  // Optional fault accounting: detection (CRC mismatch, media error) and
  // repair events on the read path are reported to `ledger`, keyed by
  // (ssd index, device block), matching FaultInjector's injection records.
  void set_fault_ledger(fault::FaultLedger* ledger) { fault_ledger_ = ledger; }

  // Registers pull-style observability metrics (segment/reclaim/repair
  // counters, utilization, free-SG gauge) under `scope`, e.g. "src". The
  // callbacks read this cache; it must outlive the registry's snapshots.
  void register_metrics(const obs::Scope& scope);

  // Attaches an op-span tracer (nullptr detaches): segment fills, reclaims,
  // destages and backend fetches become child spans of the sampled op;
  // segment seals, SG reclaims, flushes, repairs and failure handling go to
  // its timeline on lane kLaneSrc.
  void set_span(obs::SpanTracer* tracer) { span_ = tracer; }

  // Cumulative write-provenance ledger: every byte this cache wrote to the
  // SSDs (obs device index = array position) or to primary storage
  // (obs::kPrimaryDevice), attributed to its cause. Always on — recording is
  // integer adds on the seal/destage paths. The balance invariant (per
  // device: ledger bytes == DeviceStats::write_blocks x kBlockSize) is
  // asserted by provenance_test.
  [[nodiscard]] const obs::ProvenanceLedger& provenance() const {
    return ledger_;
  }
  // Mutable handle for external writers sharing this cache's SSDs: the
  // background rebuild engine ledgers its spare writes here (rebuild_copy)
  // so the per-device balance invariant keeps holding during a rebuild.
  [[nodiscard]] obs::ProvenanceLedger& mutable_provenance() { return ledger_; }

 private:
  static constexpr u32 kBufferSg = ~0u;

  // The one residency record of a cached block. `flags` carries the dirty
  // and hot bits and the eviction policy's per-block bits (policy.hpp).
  struct MapEntry {
    u32 sg = 0;
    u32 seg = 0;
    u32 slot = 0;
    u16 tenant = 0;
    u8 flags = 0;
    [[nodiscard]] bool dirty() const {
      return (flags & policy::kFlagDirty) != 0;
    }
    [[nodiscard]] bool hot() const { return (flags & policy::kFlagHot) != 0; }
    [[nodiscard]] bool buffered() const { return sg == kBufferSg; }
  };
  static_assert(sizeof(MapEntry) == 16);

  // A segment's summary record (the image its MS and ME hold) plus the
  // count of its slots still live.
  struct SegmentInfo : SegmentMeta {
    u32 live = 0;
  };

  enum class SgState : u8 { kFree, kActive, kSealed, kReclaiming, kSuper };

  struct SgInfo {
    SgState state = SgState::kFree;
    u64 seal_seq = 0;
    u32 live = 0;
    u32 next_seg = 0;
    // Earliest time the (freed) SG may be rewritten: its destages must have
    // reached primary storage first. Writes into it stall until then,
    // which is how destage pressure throttles the foreground (§4.2).
    SimTime ready_at = 0;
    std::vector<SegmentInfo> segs;
    // Live blocks per tenant in this SG (grown lazily); lets GC victim
    // selection price over-quota tenants' blocks as reclaimable.
    std::vector<u32> live_by_tenant;
  };

  // One block on its way to flash or primary storage, with its provenance:
  // a staged segment-buffer entry (lba kDeadSlot once invalidated) or a
  // destage / quota-bypass write. The cause rides along so the bytes it
  // turns into are attributed at stage time.
  struct BlockWrite {
    u64 lba;
    u64 tag;
    u16 tenant;
    obs::WriteCause cause;
  };

  struct SegBuffer {
    explicit SegBuffer(bool seals_dirty = false) : dirty(seals_dirty) {}
    bool dirty;  // which segment type it seals into
    // The staged entries are slots[head..]; those before head were taken
    // by seals, and are dropped once they are at least as many as the
    // staged ones, so a seal costs O(segment), not O(buffer).
    std::vector<BlockWrite> slots;
    size_t head = 0;
    u32 live = 0;
    // A buffered block's MapEntry::slot is a ticket, base + its index in
    // slots (mod 2^32). Dropping taken entries advances base, so the
    // blocks left behind keep their tickets: no map re-index.
    u32 base = 0;
    [[nodiscard]] u32 index(u32 ticket) const { return ticket - base; }
    [[nodiscard]] u32 next_ticket() const {
      return base + static_cast<u32>(slots.size());
    }
    [[nodiscard]] size_t size() const { return slots.size() - head; }
    // Moves the front `count` staged entries into `out`.
    void take_front(u64 count, std::vector<BlockWrite>& out) {
      const auto first = slots.begin() + static_cast<long>(head);
      out.assign(first, first + static_cast<long>(count));
      live -= static_cast<u32>(std::count_if(
          out.begin(), out.end(),
          [](const BlockWrite& w) { return w.lba != kDeadSlot; }));
      head += count;
      if (head < size()) return;
      slots.erase(slots.begin(), slots.begin() + static_cast<long>(head));
      base += static_cast<u32>(head);
      head = 0;
    }
    void clear() {
      slots.clear();
      head = 0;
      live = 0;
      base = 0;
    }
  };

  // One cached slot to read: the device block to read it from (a hit on a
  // failed RAID-1 primary reads the mirror) and the caller's output index.
  struct SlotRead {
    size_t dev;
    u64 block;
    u32 sg, seg, slot;
    u32 idx;
  };

  // --- metadata images (seal and rebuild) ---
  [[nodiscard]] blockdev::Payload superblock_payload() const;
  // Writes one metadata payload (superblock, MS or ME) to SSD `d`; a write
  // that lands is ledgered as shared redundancy overhead and raises `done`.
  void write_meta(SimTime now, size_t d, u64 block,
                  const blockdev::Payload& payload, SimTime& done);

  // --- tenants ---
  // Clamps an application tenant id into the stats vector, growing it when
  // quotas are not enforced (unmanaged runs still account per tenant).
  u16 norm_tenant(u32 tenant);
  [[nodiscard]] bool over_quota(u16 tenant) const;
  void census_add(SgInfo& sg, u16 tenant, u32 n);
  void census_sub(SgInfo& sg, u16 tenant, u32 n);
  // Victim live count with over-quota tenants' blocks priced as garbage.
  [[nodiscard]] u64 reclaimable_live(const SgInfo& sg) const;
  void register_tenant_metrics();

  // --- write path ---
  SimTime do_write(const cache::AppRequest& req);
  // The one staging routine: points the block's map entry at a new slot at
  // the tail of the dirty or clean buffer (a dirty block already in the
  // dirty buffer is overwritten in place), keeps tenant occupancy in step
  // and tells the eviction policy of the admission or rewrite. A clean
  // fill of a resident block is a no-op: the cached copy wins. Staging
  // never seals; seal_buffer does, so GC-induced appends can never
  // re-enter a seal.
  void stage(u64 lba, u64 tag, u16 tenant, bool dirty, obs::WriteCause cause,
             SimTime now);
  // Points `e` at a new ticket at the tail of `buf` with `flags` (plus the
  // policy bits `e` already carries) and appends `w` there: stage's buffer
  // half, and the repoint of a Sel-GC S2S copy, whose map entry stays in
  // place and which skips the policy hooks (the block never left the
  // cache).
  void append(SegBuffer& buf, MapEntry& e, const BlockWrite& w, u8 flags,
              SimTime now);
  // Drains every full segment from the buffer (and, when force_partial, a
  // trailing partial one). GC triggered by SG allocation may append more
  // entries; the drain loop absorbs them.
  SimTime seal_buffer(SimTime now, SegBuffer& buf, bool force_partial);
  // Writes exactly one segment from the buffer front (count entries).
  SimTime write_one_segment(SimTime now, SegBuffer& buf, u64 count);
  void drain_buffers(SimTime now);
  u32 allocate_sg(SimTime now);
  SimTime throttle(SimTime now, SimTime ack);
  void maybe_timeout_partial(SimTime now);

  // The one primary write-back (GC destages and quota bypass): sorts
  // `writes` by LBA, issues each consecutive run as one write at `at`
  // (flagged background traffic when asked) and ledgers every block of a
  // run that lands. Returns the latest completion, at least `at`.
  SimTime write_primary(SimTime at, std::vector<BlockWrite>& writes,
                        bool background);

  // --- read path (§4.1 failure handling) ---
  SimTime do_read(const cache::AppRequest& req);
  // The one verified reader of cached slots for hits and GC: each run of
  // entries adjacent on one device is one read command, checked against
  // the slot CRCs. A run that touches a dead block, fails or mismatches is
  // re-read slot by slot through read_slot. Writes tags[r.idx] for every
  // slot recovered and sets lost[r.idx] for every unrecoverable one (an
  // empty span: not wanted). Returns the latest completion, at least now.
  SimTime read_slots(SimTime now, std::span<const SlotRead> reads,
                     std::span<u64> tags, std::span<char> lost);
  // Reads one cached slot with checksum verification and repair: its own
  // copy, then the RAID-1 mirror, the stripe's parity, and (clean data
  // only) primary storage. A repaired copy is written back (rewrite_slot).
  // Raises `done` to the completion of the reads that served it.
  Result<u64> read_slot(SimTime now, u32 sg, u32 seg, u32 slot, SimTime& done);
  Result<u64> reconstruct_from_stripe(SimTime now, const SlotPlace& target,
                                      SimTime& done);
  // Writes a repaired tag over the slot's own copy unless its device is
  // failed, ledgered as repair_remap, and reports the repair.
  void rewrite_slot(SimTime now, const SlotPlace& a, u16 tenant, u64 tag);
  // Accounts a bad read of (dev, block): kOk means a checksum mismatch,
  // kMediaError a latent sector error; both are counted and reported to
  // the fault ledger. Returns false (nothing counted) for other errors.
  bool note_bad_read(size_t dev, u64 block, ErrorCode error);

  // --- reclamation ---
  SimTime ensure_free_sg(SimTime now);
  SimTime reclaim_one(SimTime now, bool force_s2d);
  [[nodiscard]] u32 pick_victim() const;

  // --- bookkeeping ---
  // True when the block must not be served from the device itself: the
  // device is failed, or a blank replacement has not been rebuilt here yet
  // (a masked read would return stale/blank data, not an error).
  [[nodiscard]] bool dev_dead(size_t dev, u64 block) const {
    if (ssds_[dev]->failed()) return true;
    return rebuild_ != nullptr && rebuild_->covers(dev, block);
  }
  // Residency ledger. invalidate_slot uncounts the slot an entry points at
  // (buffer or sealed segment); place_slot points an entry at a sealed slot
  // and counts it live in the segment, the SG, its tenant census and
  // live_total_. place_slot runs once per sealed slot, from two source
  // files, so it is defined here to stay inlinable. reclaim_one uncounts
  // its victim's slots itself: it resets the SG wholesale.
  void invalidate_slot(const MapEntry& e);
  void place_slot(MapEntry& e, u32 sg, u32 seg, u32 slot) {
    e.sg = sg;
    e.seg = seg;
    e.slot = slot;
    SgInfo& g = sgs_[sg];
    g.segs[seg].live++;
    g.live++;
    census_add(g, e.tenant, 1);
    live_total_++;
  }
  // Drops cached blocks whose every copy is gone, counted lost.
  void drop_lost(const std::vector<u64>& lbas);
  SimTime flush_all_ssds(SimTime now);

  SrcConfig cfg_;
  SegmentLayout layout_;  // every chunk offset and stripe placement
  std::vector<BlockDevice*> ssds_;
  BlockDevice* primary_;

  // Replacement/admission policies (src/policy), chosen by cfg_.eviction /
  // cfg_.admission. Recreated cold by recover(), whose rebuilt entries
  // start with clear policy bits, so a crash never carries policy state
  // across the cut.
  std::unique_ptr<policy::EvictionPolicy> eviction_;
  std::unique_ptr<policy::AdmissionPolicy> admission_;

  common::FlatMap<MapEntry> map_;
  std::vector<SgInfo> sgs_;
  std::deque<u32> free_sgs_;
  u32 active_sg_ = kBufferSg;

  SegBuffer dirty_buf_{/*seals_dirty=*/true};
  SegBuffer clean_buf_;

  // Per-call scratch, refilled on every use so the seal, reclaim, read and
  // write paths do not allocate. Neither write_one_segment nor reclaim_one
  // re-enters itself: GC only stages blocks, it never seals; and a read
  // finishes with its slots before draining the buffers into GC.
  std::vector<BlockWrite> taken_;  // write_one_segment: entries being sealed
  std::vector<u64> images_;  // write_one_segment: num_ssds x rows tag images
  std::vector<char> gc_keep_, gc_lost_;  // reclaim_one: per-slot verdicts
  std::vector<u64> gc_tag_;              // reclaim_one: slot tags
  std::vector<MapEntry> gc_entry_;       // reclaim_one: slot map entries
  std::vector<SlotRead> reads_, dead_reads_;  // do_read / reclaim_one
  std::vector<u64> run_buf_;  // read_slots / write_primary: one run's tags
  std::vector<BlockWrite> bypass_;            // do_write: quota bypass

  std::deque<SimTime> inflight_;  // outstanding segment-write completions
  u64 live_total_ = 0;            // live blocks on SSDs (not buffered)
  u64 gen_seq_ = 0;
  u64 seal_seq_ = 0;
  u64 tag_version_ = 0;
  SimTime last_dirty_stage_ = 0;
  bool in_gc_ = false;
  bool flushing_ = false;  // flush(): reclaims destage, never copy
  fault::FaultLedger* fault_ledger_ = nullptr;
  raid::RebuildManager* rebuild_ = nullptr;

  cache::CacheStats stats_;
  ExtraStats extra_;
  std::vector<TenantStats> tenants_{1};
  bool quotas_enforced_ = false;

  obs::SpanTracer* span_ = nullptr;
  obs::ProvenanceLedger ledger_;
  // Kept so tenants configured after register_metrics still get per-tenant
  // metrics registered (set_tenant_quotas may run later).
  std::optional<obs::Scope> metrics_scope_;
  size_t tenants_registered_ = 0;
};

// SrcCache::ExtraStats as registered metrics ("src.<name>"); flushes_issued
// registers as "flushes".
inline constexpr CounterField<SrcCache::ExtraStats> kExtraStatsFields[] = {
    {"segments_written", &SrcCache::ExtraStats::segments_written},
    {"partial_segments", &SrcCache::ExtraStats::partial_segments},
    {"clean_segments", &SrcCache::ExtraStats::clean_segments},
    {"dirty_segments", &SrcCache::ExtraStats::dirty_segments},
    {"sg_reclaims", &SrcCache::ExtraStats::sg_reclaims},
    {"s2d_reclaims", &SrcCache::ExtraStats::s2d_reclaims},
    {"s2s_reclaims", &SrcCache::ExtraStats::s2s_reclaims},
    {"flushes", &SrcCache::ExtraStats::flushes_issued},
    {"checksum_errors", &SrcCache::ExtraStats::checksum_errors},
    {"media_errors", &SrcCache::ExtraStats::media_errors},
    {"parity_repairs", &SrcCache::ExtraStats::parity_repairs},
    {"refetch_repairs", &SrcCache::ExtraStats::refetch_repairs},
    {"unrecoverable_blocks", &SrcCache::ExtraStats::unrecoverable_blocks},
    {"lost_clean_blocks", &SrcCache::ExtraStats::lost_clean_blocks},
    {"lost_dirty_blocks", &SrcCache::ExtraStats::lost_dirty_blocks},
    {"torn_segments_discarded",
     &SrcCache::ExtraStats::torn_segments_discarded},
};
static_assert(names_every_counter(kExtraStatsFields));

// Connects a cache to a scripted fault injector and, optionally, the
// background rebuild engine driven by the plan's replace/spare actions:
// detections and repairs go to the injector's ledger, a fail-stop reaches
// on_ssd_failure (then the rebuilder), and the rebuilder draws its extents
// from rebuild_extents, reports aborted extents to on_rebuild_lost, ledgers
// its spare writes as rebuild_copy provenance and credits completed
// rebuilds to the fail-stop's ledger record. `rebuild` may be null.
void wire_faults(SrcCache& cache, fault::FaultInjector& inj,
                 raid::RebuildManager* rebuild);

}  // namespace srcache::src
