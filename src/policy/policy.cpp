#include "policy/policy.hpp"

#include <algorithm>

namespace srcache::policy {

namespace {

// Ghost structures remember roughly one cache's worth of evicted lbas —
// the standard S3-FIFO setting, and enough reuse history for admission —
// clamped so tiny test rigs still get a useful window and a huge cache
// cannot make policy metadata unbounded.
constexpr u64 kGhostMin = 16;
constexpr u64 kGhostMax = u64{1} << 20;

u64 ghost_capacity_for(u64 capacity_blocks) {
  return std::clamp(capacity_blocks, kGhostMin, kGhostMax);
}

// `flags` with its S3-FIFO access count set to `freq`.
u8 with_freq(int flags, int freq) {
  return static_cast<u8>((flags & ~kFlagFreq) | freq << kFreqShift);
}

}  // namespace

std::optional<EvictionKind> parse_eviction(const std::string& s) {
  if (s == "paper") return EvictionKind::kPaper;
  if (s == "s3fifo") return EvictionKind::kS3Fifo;
  if (s == "sieve") return EvictionKind::kSieve;
  return std::nullopt;
}

std::optional<AdmissionKind> parse_admission(const std::string& s) {
  if (s == "always") return AdmissionKind::kAlways;
  if (s == "ghost") return AdmissionKind::kGhost;
  return std::nullopt;
}

const char* to_string(EvictionKind k) {
  switch (k) {
    case EvictionKind::kPaper: return "paper";
    case EvictionKind::kS3Fifo: return "s3fifo";
    case EvictionKind::kSieve: return "sieve";
  }
  return "?";
}

const char* to_string(AdmissionKind k) {
  switch (k) {
    case AdmissionKind::kAlways: return "always";
    case AdmissionKind::kGhost: return "ghost";
  }
  return "?";
}

// --- PaperEviction ---------------------------------------------------------

bool PaperEviction::keep_on_gc(u64 lba, u8& flags) {
  (void)lba;
  return verdict((flags & (kFlagDirty | kFlagHot)) != 0);
}

// --- S3FifoEviction --------------------------------------------------------

S3FifoEviction::S3FifoEviction(u64 capacity_blocks)
    : ghost_capacity_(ghost_capacity_for(capacity_blocks)) {}

void S3FifoEviction::ghost_insert(u64 lba) {
  if (ghost_index_.contains(lba)) return;  // already remembered
  ghost_fifo_.push_front(lba);
  ghost_index_.emplace(lba, ghost_fifo_.begin());
  if (ghost_fifo_.size() > ghost_capacity_) {
    ghost_index_.erase(ghost_fifo_.back());
    ghost_fifo_.pop_back();
  }
}

void S3FifoEviction::on_admit(u64 lba, u8& flags) {
  const auto ghost = ghost_index_.find(lba);
  if (ghost == ghost_index_.end()) return;  // enters small, freq 0
  // Quick demotion was a mistake for this lba: readmit straight to main,
  // with one wrap of guaranteed survival — the reuse is proven, and for a
  // destaged dirty block the readmission already cost a write-back cycle.
  ghost_fifo_.erase(ghost->second);
  ghost_index_.erase(ghost);
  flags = with_freq(flags | kFlagMain, 1);
  stats_.ghost_hits++;
}

void S3FifoEviction::on_access(u8& flags) {
  flags = with_freq(flags, std::min(freq(flags) + 1, int{kFreqCap}));
}

bool S3FifoEviction::keep_on_gc(u64 lba, u8& flags) {
  // Survival is decided by observed reuse: a cold dirty block is destaged
  // by the caller instead of being recopied forever (safe — the destage
  // lands it on primary storage before the drop). Evicting dirty data is a
  // full write-back, so cold dirty blocks in small get one promotion
  // before the verdict lands (destage at the second cold wrap, not the
  // first), and every dirty eviction enters the ghost: a rewrite after a
  // destage is reuse evidence worth readmitting straight to main.
  const bool dirty = (flags & kFlagDirty) != 0;
  const u8 f = freq(flags);
  if (!in_main(flags)) {
    if (f == 0) {
      if (dirty) {
        // Cold dirty in small: promote with one credit — the destage
        // verdict lands only after two further wraps without reuse.
        // Evicting dirty data costs a write-back plus a possible
        // refetch, so it takes more evidence of deadness than a clean
        // drop does.
        flags = with_freq(flags | kFlagMain, 1);
        return verdict(true);
      }
      // Never re-accessed while in small: quick demotion to ghost.
      ghost_insert(lba);
      return verdict(false);
    }
    // Survived small with reuse: promote to main.
    flags = with_freq(flags | kFlagMain, 0);
    stats_.promotions++;
    return verdict(true);
  }
  if (f > 0) {
    flags = with_freq(flags, f - 1);
    return verdict(true);
  }
  // Main block whose reuse ran out. Clean main evictions do not enter the
  // ghost (standard S3-FIFO); dirty ones do, to catch rewrite churn.
  if (dirty) ghost_insert(lba);
  return verdict(false);
}

// --- SieveEviction ---------------------------------------------------------

bool SieveEviction::keep_on_gc(u64 lba, u8& flags) {
  (void)lba;
  return verdict((flags & kFlagHot) != 0);
}

// --- AlwaysAdmission -------------------------------------------------------

bool AlwaysAdmission::admit(u64 lba) {
  (void)lba;
  stats_.admitted++;
  return true;
}

// --- GhostAdmission --------------------------------------------------------

GhostAdmission::GhostAdmission(u64 capacity_blocks)
    : ghost_capacity_(ghost_capacity_for(capacity_blocks)),
      ghost_([this] {
        adapt::GhostCache::Config c;
        c.sampling_rate = 1.0;  // admission needs exact evidence, not MRCs
        c.max_entries = ghost_capacity_;
        c.sizes = {ghost_capacity_};
        return c;
      }()) {}

bool GhostAdmission::admit(u64 lba) {
  const bool seen = ghost_.contains(lba);
  ghost_.access(lba);
  if (seen) {
    stats_.admitted++;
    stats_.ghost_hits++;
    return true;
  }
  stats_.rejected++;
  return false;
}

// --- factories -------------------------------------------------------------

std::unique_ptr<EvictionPolicy> make_eviction(EvictionKind kind,
                                              u64 capacity_blocks) {
  switch (kind) {
    case EvictionKind::kPaper:
      return std::make_unique<PaperEviction>();
    case EvictionKind::kS3Fifo:
      return std::make_unique<S3FifoEviction>(capacity_blocks);
    case EvictionKind::kSieve:
      return std::make_unique<SieveEviction>();
  }
  return std::make_unique<PaperEviction>();
}

std::unique_ptr<AdmissionPolicy> make_admission(AdmissionKind kind,
                                                u64 capacity_blocks) {
  switch (kind) {
    case AdmissionKind::kAlways:
      return std::make_unique<AlwaysAdmission>();
    case AdmissionKind::kGhost:
      return std::make_unique<GhostAdmission>(capacity_blocks);
  }
  return std::make_unique<AlwaysAdmission>();
}

}  // namespace srcache::policy
