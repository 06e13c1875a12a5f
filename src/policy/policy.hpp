// Pluggable replacement/admission policies for the SRC cache.
//
// The paper's SRC cache hard-codes one scheme: a hot-flag second chance at
// GC time (Sel-GC keeps a clean block iff it was touched since it was
// staged) and admit-everything on the fill path. Its central claim — cost-
// effective flash caching — is really a point on the hit-ratio vs
// NAND-write-amplification frontier, so this subsystem extracts both
// decisions behind narrow interfaces and adds the modern low-write
// algorithms next to the paper's policy:
//
//  * EvictionPolicy — consulted by GC when a live block's segment group is
//    reclaimed ("keep = copy forward" vs "evict"). Evicting a clean block
//    drops it (refetchable from primary); evicting a dirty block destages
//    it to primary storage instead of copying it SSD-to-SSD. The paper's
//    Sel-GC recopies every dirty block at every reclaim no matter how cold
//    — that recurring NAND cost for write-once data is exactly where the
//    modern policies pull ahead on the frontier. Whole-victim destage
//    (S2D mode, over-UMAX, quota shed) stays with GcPolicy and bypasses
//    the per-block verdict.
//      - kPaper:  keep iff dirty or the hot flag is set (bit-identical to
//                 the hard-coded behaviour this subsystem replaced).
//      - kS3Fifo: small/main queues with a ghost FIFO (S3-FIFO, SOSP'23
//                 lineage; shape follows lsc's block_gc_cache). New blocks
//                 enter "small"; a small block that was never re-accessed
//                 is evicted to the ghost list, a re-accessed one is
//                 promoted to "main"; a ghost hit on re-admission goes
//                 straight to main. Main blocks survive GC while their
//                 (capped) access count lets them.
//      - kSieve:  keep iff the block was visited since it was staged or
//                 last kept — which is exactly the cache's hot flag, so,
//                 like kPaper, it keeps no state of its own.
//    The log itself provides the FIFO order (GC reclaims in log order),
//    and per-block bits live in the cache's entry for the block (see the
//    flag layout below), so no policy shadows the cache's residency: only
//    S3-FIFO's ghost of evicted blocks is policy-owned.
//
//  * AdmissionPolicy — consulted once per block on the read-miss fill path
//    ("cache this fetched block or serve it through?"). Dirty user writes
//    are always absorbed (the cache is the write-back tier; bouncing them
//    would change durability semantics), so admission only gates clean
//    fills — the dominant source of NAND writes on read-heavy traces.
//      - kAlways: the paper's behaviour.
//      - kGhost:  admit on reuse evidence only. A rejected fill's lba is
//                 remembered in a ghost LRU (adapt::GhostCache at sampling
//                 rate 1.0); the next miss on that lba is admitted. One-hit
//                 wonders never touch flash.
//
// Determinism contract: every policy is a deterministic function of its own
// call sequence (no clocks, no RNG), and SrcCache owns one instance per
// cache — under the sharded engine each domain's cache carries its own
// policy state, so merged REPRO_JSON stays bit-identical across
// REPRO_THREADS for every policy choice (engine_test proves it).
#pragma once

#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "adapt/ghost_cache.hpp"
#include "common/types.hpp"

namespace srcache::policy {

enum class EvictionKind { kPaper, kS3Fifo, kSieve };
enum class AdmissionKind { kAlways, kGhost };

// Strict parsers for the REPRO_POLICY / REPRO_ADMIT knobs: the exact
// lowercase names or nothing (misspellings must fail loudly, not fall back
// to a default mid-experiment).
std::optional<EvictionKind> parse_eviction(const std::string& s);
std::optional<AdmissionKind> parse_admission(const std::string& s);
const char* to_string(EvictionKind k);
const char* to_string(AdmissionKind k);

// Monotonic tallies surfaced through the cache's metrics scope
// ("src.policy.*" counters in REPRO_JSON).
struct EvictionStats {
  u64 gc_kept = 0;       // keep_on_gc said copy forward
  u64 gc_evicted = 0;    // keep_on_gc said drop
  u64 promotions = 0;    // small -> main transitions (S3-FIFO)
  u64 ghost_hits = 0;    // re-admissions recognised from the ghost FIFO
};
struct AdmissionStats {
  u64 admitted = 0;
  u64 rejected = 0;
  u64 ghost_hits = 0;    // admits justified by ghost-LRU reuse evidence
};

// Per-block flags: one byte in the cache's own entry for each resident
// block (SrcCache's MapEntry::flags, TierCache's Entry::flags). The cache
// owns kFlagDirty and kFlagHot; the kPolicyFlags bits belong to the
// eviction policy, and the cache carries them over whenever it repoints
// the entry (an S2S copy, a rewrite, a second chance). An evicted block's
// entry is dropped with its bits; a new entry starts with them clear.
inline constexpr u8 kFlagDirty = 1;  // newer than primary storage
inline constexpr u8 kFlagHot = 2;    // hit since staged or last kept by GC
inline constexpr u8 kFlagMain = 4;   // S3-FIFO: main queue (else small)
inline constexpr u8 kFreqShift = 3;  // S3-FIFO: capped access count
inline constexpr u8 kFlagFreq = 3 << kFreqShift;
inline constexpr u8 kPolicyFlags = kFlagMain | kFlagFreq;

// Replacement decisions for resident blocks. The cache drives the hooks
// from the data path with the block's flags; `keep_on_gc` is the decision
// point.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  [[nodiscard]] virtual EvictionKind kind() const = 0;

  // A block became resident (miss fill or new user write); its entry is
  // new, so `flags` holds no policy bits yet.
  virtual void on_admit(u64 lba, u8& flags) {
    (void)lba;
    (void)flags;
  }
  // A resident block was hit (read hit or rewrite).
  virtual void on_access(u8& flags) { (void)flags; }
  // GC is reclaiming this live block's segment group: keep (copy forward)
  // or evict (drop if clean, destage to primary if dirty)? Called exactly
  // once per live block per reclaim, on the live entry's flags — the call
  // may move the block between queues or put it in a ghost, so callers
  // must not re-ask. A kept block's hot flag is the cache's to clear; an
  // evicted block's entry goes.
  [[nodiscard]] virtual bool keep_on_gc(u64 lba, u8& flags) = 0;

  [[nodiscard]] const EvictionStats& stats() const { return stats_; }

 protected:
  // Counts a verdict into gc_kept / gc_evicted and returns it.
  bool verdict(bool keep) {
    (keep ? stats_.gc_kept : stats_.gc_evicted)++;
    return keep;
  }

  EvictionStats stats_;
};

// Admission decisions for clean read-miss fills.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  [[nodiscard]] virtual AdmissionKind kind() const = 0;
  // Cache this fetched block? May record the lba for future evidence.
  [[nodiscard]] virtual bool admit(u64 lba) = 0;
  [[nodiscard]] const AdmissionStats& stats() const { return stats_; }

 protected:
  AdmissionStats stats_;
};

// --- concrete policies (public so policy_test can introspect) --------------

// The paper's hot-flag second chance: dirty blocks are copied
// unconditionally, clean ones kept iff hot.
class PaperEviction final : public EvictionPolicy {
 public:
  [[nodiscard]] EvictionKind kind() const override {
    return EvictionKind::kPaper;
  }
  [[nodiscard]] bool keep_on_gc(u64 lba, u8& flags) override;
};

class S3FifoEviction final : public EvictionPolicy {
 public:
  explicit S3FifoEviction(u64 capacity_blocks);
  [[nodiscard]] EvictionKind kind() const override {
    return EvictionKind::kS3Fifo;
  }
  void on_admit(u64 lba, u8& flags) override;
  void on_access(u8& flags) override;
  [[nodiscard]] bool keep_on_gc(u64 lba, u8& flags) override;

  [[nodiscard]] static bool in_main(u8 flags) {
    return (flags & kFlagMain) != 0;
  }
  [[nodiscard]] static u8 freq(u8 flags) {
    return static_cast<u8>((flags & kFlagFreq) >> kFreqShift);
  }
  [[nodiscard]] bool in_ghost(u64 lba) const {
    return ghost_index_.contains(lba);
  }
  [[nodiscard]] u64 ghost_capacity() const { return ghost_capacity_; }

 private:
  static constexpr u8 kFreqCap = 3;

  void ghost_insert(u64 lba);

  u64 ghost_capacity_;
  // Ghost FIFO of recently evicted lbas: list front = newest.
  std::list<u64> ghost_fifo_;
  std::unordered_map<u64, std::list<u64>::iterator> ghost_index_;
};

// SIEVE over the log: the hand is GC's reclaim order and the visited bit is
// the cache's hot flag, which the cache clears when it keeps a block.
class SieveEviction final : public EvictionPolicy {
 public:
  [[nodiscard]] EvictionKind kind() const override {
    return EvictionKind::kSieve;
  }
  [[nodiscard]] bool keep_on_gc(u64 lba, u8& flags) override;
};

class AlwaysAdmission final : public AdmissionPolicy {
 public:
  [[nodiscard]] AdmissionKind kind() const override {
    return AdmissionKind::kAlways;
  }
  [[nodiscard]] bool admit(u64 lba) override;
};

class GhostAdmission final : public AdmissionPolicy {
 public:
  explicit GhostAdmission(u64 capacity_blocks);
  [[nodiscard]] AdmissionKind kind() const override {
    return AdmissionKind::kGhost;
  }
  [[nodiscard]] bool admit(u64 lba) override;

  [[nodiscard]] u64 ghost_capacity() const { return ghost_capacity_; }

 private:
  u64 ghost_capacity_;
  adapt::GhostCache ghost_;
};

// Factories used by SrcCache's constructor; `capacity_blocks` sizes the
// ghost structures (bounded, so a misconfigured huge cache cannot make
// policy metadata unbounded).
std::unique_ptr<EvictionPolicy> make_eviction(EvictionKind kind,
                                              u64 capacity_blocks);
std::unique_ptr<AdmissionPolicy> make_admission(AdmissionKind kind,
                                                u64 capacity_blocks);

}  // namespace srcache::policy
