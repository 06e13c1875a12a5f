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
//      - kSieve:  one visited bit per resident block; GC keeps a visited
//                 block once (clearing the bit), evicts unvisited ones.
//    The log itself provides the FIFO order (GC reclaims in log order), so
//    the policies keep membership metadata only — no duplicate queues of
//    the data path.
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

// Replacement decisions for clean resident blocks. SrcCache drives the
// lifecycle hooks from the data path; `keep_on_gc` is the decision point.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  [[nodiscard]] virtual EvictionKind kind() const = 0;

  // A block became resident (miss fill or new user write). try_emplace
  // semantics: re-admitting a tracked block is a no-op access.
  virtual void on_admit(u64 lba) = 0;
  // A resident block was hit (read hit or rewrite).
  virtual void on_access(u64 lba) = 0;
  // GC is reclaiming this live block's segment group: keep (copy forward)
  // or evict (drop if clean, destage to primary if dirty)? Called exactly
  // once per live block per reclaim — the call may transition internal
  // state (S3-FIFO queue moves, SIEVE bit clear, ghost insertion on
  // evict), so callers must not re-ask. `hot` is the cache's second-chance
  // flag (the paper policy's only input); `dirty` lets the paper policy
  // reproduce Sel-GC's unconditional dirty copy.
  [[nodiscard]] virtual bool keep_on_gc(u64 lba, bool hot, bool dirty) = 0;
  // The block left the cache without a keep_on_gc verdict (S2D drop,
  // destage, quota shed, unrecoverable read, SSD failure). Idempotent.
  virtual void on_evict(u64 lba) = 0;

  [[nodiscard]] const EvictionStats& stats() const { return stats_; }

 protected:
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

// The paper's hot-flag second chance, stateless by construction: SrcCache
// already keeps the hot bit in its map entries, so this class only turns it
// into a verdict (and tallies).
class PaperEviction final : public EvictionPolicy {
 public:
  [[nodiscard]] EvictionKind kind() const override {
    return EvictionKind::kPaper;
  }
  void on_admit(u64 lba) override { (void)lba; }
  void on_access(u64 lba) override { (void)lba; }
  [[nodiscard]] bool keep_on_gc(u64 lba, bool hot, bool dirty) override;
  void on_evict(u64 lba) override { (void)lba; }
};

class S3FifoEviction final : public EvictionPolicy {
 public:
  // Which structure tracks an lba right now (testing/introspection).
  enum class Queue { kNone, kSmall, kMain, kGhost };

  explicit S3FifoEviction(u64 capacity_blocks);
  [[nodiscard]] EvictionKind kind() const override {
    return EvictionKind::kS3Fifo;
  }
  void on_admit(u64 lba) override;
  void on_access(u64 lba) override;
  [[nodiscard]] bool keep_on_gc(u64 lba, bool hot, bool dirty) override;
  void on_evict(u64 lba) override;

  [[nodiscard]] Queue queue_of(u64 lba) const;
  [[nodiscard]] u64 ghost_capacity() const { return ghost_capacity_; }

 private:
  struct Entry {
    bool main = false;   // false: small queue; true: main queue
    u8 freq = 0;         // capped access count (kFreqCap)
  };
  static constexpr u8 kFreqCap = 3;

  void ghost_insert(u64 lba);

  u64 ghost_capacity_;
  std::unordered_map<u64, Entry> resident_;
  // Ghost FIFO of recently evicted small-queue lbas: list front = newest.
  std::list<u64> ghost_fifo_;
  std::unordered_map<u64, std::list<u64>::iterator> ghost_index_;
};

class SieveEviction final : public EvictionPolicy {
 public:
  [[nodiscard]] EvictionKind kind() const override {
    return EvictionKind::kSieve;
  }
  void on_admit(u64 lba) override;
  void on_access(u64 lba) override;
  [[nodiscard]] bool keep_on_gc(u64 lba, bool hot, bool dirty) override;
  void on_evict(u64 lba) override;

  [[nodiscard]] bool visited(u64 lba) const;
  [[nodiscard]] bool tracked(u64 lba) const {
    return visited_.contains(lba);
  }

 private:
  std::unordered_map<u64, bool> visited_;
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
