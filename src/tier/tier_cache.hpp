// Compressed DRAM tier in front of the SSD array (ZipCache-style
// multi-tier, see ROADMAP).
//
// A size-bounded in-memory cache of 4 KiB blocks held in compressed form,
// interposed above the flash cache (normally SrcCache) on the I/O path. The
// compressor is simulated: the workload layer stamps a deterministic
// per-block compressibility ratio (AppRequest::comp_pct, a percentage of
// kBlockSize) onto every request, and the tier charges calibrated virtual
// CPU time per byte for compression (writes, fills) and decompression
// (read hits). The byte budget applies to *compressed* size, so effective
// capacity floats with how well the data compresses.
//
// Data movement contract:
//  * Writes are absorbed write-back: compressible blocks land dirty in the
//    tier without touching flash; the dirty share of the budget is bounded
//    (dirty_pct) and overflow destages to the flash cache in segment-sized
//    batches under the tier_destage provenance cause.
//  * Read misses forward to the inner cache; blocks filled from primary are
//    admitted (read-miss fill), blocks that hit in the inner cache are
//    promoted up only when the inner cache's hot hint says they earn DRAM.
//  * Incompressible blocks (comp_pct > kIncompressiblePct) bypass the tier
//    entirely — holding them would spend DRAM at ~1x.
//  * Budget overflow evicts in FIFO order with a policy second chance
//    (src/policy: paper / s3fifo / sieve all work here); an evicted dirty
//    block destages down, an evicted clean block is demoted into the inner
//    cache (tier_demote) unless it is still resident there, in which case
//    it is simply dropped.
//
// FIFO bookkeeping: every admission (and every second chance) takes the
// next slot of a ring numbered by a monotone sequence number, so a block's
// FIFO position is its entry's `seq` and older means smaller. A removed
// block leaves a hole in its slot; holes at the front are popped, and the
// ring is renumbered when holes outnumber live slots. A dirty bitset over
// the same seqs (one bit per slot, one summary bit per 64-bit word) plus a
// cursor below which no bit is set lets the dirty-bound walk and flush
// visit only dirty slots, oldest first: an overwrite re-dirties its block
// in place and pulls the cursor back, a second chance moves the block and
// its bit to the back. No per-op cost grows with residency.
//
// Determinism: one tier per engine domain, no clocks, no RNG — every
// decision is a function of the request stream and the (deterministic)
// policy state, so merged REPRO_JSON stays bit-identical across
// REPRO_THREADS.
//
// Crash model: DRAM vanishes at a power cut. Dirty blocks resident in the
// tier at the cut are *lost*, never silently corrupted: on_power_cut counts
// each one as lost-dirty and records an injected+detected data-loss pair in
// the FaultLedger, so the ledger still reconciles.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "cache/cache_device.hpp"
#include "common/flat_map.hpp"
#include "common/result.hpp"
#include "fault/ledger.hpp"
#include "obs/metrics.hpp"
#include "policy/policy.hpp"
#include "src_cache/src_cache.hpp"

namespace srcache::tier {

using sim::SimTime;

struct TierConfig {
  u64 budget_bytes = 64 * MiB;   // bound on total *compressed* resident size
  u32 dirty_pct = 50;            // max dirty share of the budget, percent
  policy::EvictionKind eviction = policy::EvictionKind::kPaper;
  double cpu_ns_per_byte = 1.0;   // compression cost; decompression at half
  u32 destage_batch_blocks = 24;  // segment-sized write-back batches

  void validate() const;
};

// Monotonic tallies; window deltas and cross-domain merges are exact
// integer arithmetic (workload::TierOutcome extends these fields).
struct TierStats {
  u64 hit_blocks = 0;           // reads served from the tier
  u64 miss_blocks = 0;          // reads forwarded to the inner cache
  u64 admit_blocks = 0;         // blocks that entered the tier
  u64 bypass_blocks = 0;        // incompressible blocks passed through
  u64 promote_blocks = 0;       // admits of inner-cache-hot blocks
  u64 destage_blocks = 0;       // dirty blocks written back down
  u64 demote_blocks = 0;        // clean evictions re-admitted below
  u64 drop_blocks = 0;          // clean evictions already resident below
  u64 evict_blocks = 0;         // blocks that left the tier
  u64 uncompressed_bytes = 0;   // cumulative admitted bytes (blocks * 4K)
  u64 compressed_bytes = 0;     // cumulative compressed size of the same
  u64 cpu_compress_ns = 0;      // virtual CPU time charged to compression
  u64 cpu_decompress_ns = 0;    // ... and decompression
  u64 lost_dirty_blocks = 0;    // dirty blocks in DRAM at a power cut

  [[nodiscard]] double hit_ratio() const {
    return ratio_of(hit_blocks, hit_blocks + miss_blocks);
  }
  // Average compression ratio of everything admitted (compressed /
  // uncompressed; 1.0 when nothing was admitted).
  [[nodiscard]] double compression_ratio() const {
    return ratio_of(compressed_bytes, uncompressed_bytes, 1.0);
  }
};

// The windowed counters of the REPRO_JSON "tier" block, with its two ratios
// in print order (workload::kTierOccupancyFields follows them).
inline constexpr CounterField<TierStats> kTierStatsFields[] = {
    {"hit_blocks", &TierStats::hit_blocks},
    {"miss_blocks", &TierStats::miss_blocks},
    {.name = "hit_ratio", .ratio = &TierStats::hit_ratio},
    {"admit_blocks", &TierStats::admit_blocks},
    {"bypass_blocks", &TierStats::bypass_blocks},
    {"promote_blocks", &TierStats::promote_blocks},
    {"destage_blocks", &TierStats::destage_blocks},
    {"demote_blocks", &TierStats::demote_blocks},
    {"drop_blocks", &TierStats::drop_blocks},
    {"evict_blocks", &TierStats::evict_blocks},
    {"uncompressed_bytes", &TierStats::uncompressed_bytes},
    {"compressed_bytes", &TierStats::compressed_bytes},
    {.name = "compression_ratio", .ratio = &TierStats::compression_ratio},
    {"cpu_compress_ns", &TierStats::cpu_compress_ns},
    {"cpu_decompress_ns", &TierStats::cpu_decompress_ns},
    {"lost_dirty_blocks", &TierStats::lost_dirty_blocks},
};
static_assert(names_every_counter(kTierStatsFields));

class TierCache final : public cache::CacheDevice {
 public:
  // `inner` is the flash cache below (borrowed). When it is a SrcCache,
  // pass it as `src` too: destages/demotes then ride its provenance-
  // attributed staging paths and promotion uses its hot hint. With a
  // generic inner cache, destages forward as plain writes and clean
  // evictions drop.
  TierCache(const TierConfig& cfg, cache::CacheDevice* inner,
            src::SrcCache* src = nullptr);

  SimTime submit(const cache::AppRequest& req) override;
  SimTime flush(SimTime now) override;
  [[nodiscard]] const cache::CacheStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] u64 cached_blocks() const override { return map_.size(); }

  [[nodiscard]] const TierConfig& config() const { return cfg_; }
  [[nodiscard]] const TierStats& tier_stats() const { return tstats_; }
  [[nodiscard]] u64 resident_blocks() const { return map_.size(); }
  [[nodiscard]] u64 resident_compressed_bytes() const {
    return resident_csize_;
  }
  [[nodiscard]] u64 dirty_blocks() const { return dirty_blocks_; }
  [[nodiscard]] u64 dirty_compressed_bytes() const { return dirty_csize_; }

  // Power cut: DRAM is gone. Dirty residents are counted lost (TierStats::
  // lost_dirty_blocks and, when a ledger is attached, an injected+detected
  // data-loss record each) and the tier empties.
  void on_power_cut(SimTime now);
  // Ledger device id for tier data-loss records: distinct from every flash
  // index and from fault::kPrimaryDev.
  static constexpr int kLedgerDev = -2;
  void set_fault_ledger(fault::FaultLedger* ledger) { fault_ledger_ = ledger; }

  // Exports tier counters/gauges under `scope` (e.g. "tier"); the
  // timeseries sampler then captures hit ratio, compression ratio and CPU
  // cost per interval like any other registry series.
  void register_metrics(const obs::Scope& scope);

  // Audits the bookkeeping: byte and block counters against a recount,
  // entries against ring slots, dirty bits against entries and the walk
  // cursor, and the budget and dirty bounds (which hold between submits).
  [[nodiscard]] Status verify_consistency() const;

  // Ring slots and bitset words the dirty walk (dirty bound and flush) has
  // visited so far; a work counter for tests, not a registry metric.
  [[nodiscard]] u64 dirty_walk_visits() const { return walk_visits_; }
  // Ring slots in use, holes included: at most twice the resident blocks
  // plus one summary span.
  [[nodiscard]] u64 ring_slots() const { return ring_.size(); }

 private:
  struct Entry {
    u64 tag = 0;
    u64 seq = 0;       // ring slot, i.e. FIFO position (smaller = older)
    u32 csize = 0;     // compressed bytes
    u16 tenant = 0;
    bool dirty = false;
    bool hot = false;  // second-chance bit (paper policy input)
  };
  // Ring value of a vacated slot; never a block address.
  static constexpr u64 kHole = ~u64{0};
  // Slots covered by one summary word of the dirty bitset.
  static constexpr u64 kSummarySpan = 64 * 64;

  SimTime do_read(const cache::AppRequest& req);
  SimTime do_write(const cache::AppRequest& req);

  [[nodiscard]] u32 compressed_size(u8 comp_pct) const;
  void admit(u64 lba, u64 tag, u16 tenant, u32 csize, bool dirty);
  // `e` is map_'s entry for lba; the erase leaves it (and every other
  // reference into map_) dangling.
  void remove_entry(u64 lba, Entry& e);

  // Ring and dirty index. push_slot appends at the back and returns the
  // slot's seq; vacate holes a slot and pops holes off the front;
  // next_dirty returns the oldest dirty seq >= from (end_seq() if none);
  // compact renumbers the live slots when holes outnumber them.
  [[nodiscard]] u64 end_seq() const { return base_ + ring_.size(); }
  u64 push_slot(u64 lba);
  void vacate(u64 seq);
  void mark_dirty(u64 seq);
  void mark_clean(u64 seq);
  [[nodiscard]] bool dirty_bit(u64 seq) const;
  u64 next_dirty(u64 from);
  void reset_ring();
  void compact();

  [[nodiscard]] u64 dirty_limit() const {
    return cfg_.budget_bytes / 100 * cfg_.dirty_pct;
  }
  // Destages the oldest dirty blocks in place (they stay resident, clean)
  // until the dirty bytes are at most `limit`.
  SimTime destage_oldest(SimTime now, u64 limit);
  // Evicts (policy second chance) until compressed size fits the budget.
  SimTime enforce_budget(SimTime now);
  // Queues one block for write-back; a full batch goes down at once.
  SimTime queue_destage(SimTime now, u64 lba, const Entry& e);
  // Writes the queued batch down and empties it.
  SimTime destage_batch(SimTime now);

  TierConfig cfg_;
  cache::CacheDevice* inner_;
  src::SrcCache* src_;

  common::FlatMap<Entry> map_;
  // Slot seq holds ring_[seq - base_]: an LBA or kHole.
  std::deque<u64> ring_;
  u64 base_ = 0;
  // Bit (seq - bits_base_) of dirty_words_ is set iff that slot is dirty;
  // bit w of dirty_summary_[s] is set iff dirty_words_[64 * s + w] != 0.
  // bits_base_ is a multiple of kSummarySpan.
  std::deque<u64> dirty_words_;
  std::deque<u64> dirty_summary_;
  u64 bits_base_ = 0;
  u64 dirty_cursor_ = 0;  // no dirty slot lies below this seq
  u64 walk_visits_ = 0;
  std::unique_ptr<policy::EvictionPolicy> eviction_;

  // Per-call scratch, kept to avoid allocating on every request.
  std::vector<u64> batch_lbas_, batch_tags_;
  std::vector<u16> batch_tenants_;
  std::vector<u64> bypass_lbas_, bypass_tags_;
  std::vector<u64> read_tags_;
  std::vector<u8> below_;

  u64 resident_csize_ = 0;
  u64 dirty_csize_ = 0;
  u64 dirty_blocks_ = 0;
  u64 tag_version_ = 0;
  SimTime compress_ns_ = 0;    // per-block virtual-time charges
  SimTime decompress_ns_ = 0;

  cache::CacheStats stats_;
  TierStats tstats_;
  fault::FaultLedger* fault_ledger_ = nullptr;
};

}  // namespace srcache::tier
