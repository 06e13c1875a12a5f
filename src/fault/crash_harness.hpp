// Crash-consistency harness: sweeps a power cut across *every* device
// command of a deterministic workload and proves the §4.1/§4.3 recovery
// invariants at each one, after ALICE (Pillai et al., OSDI'14), which
// enumerates crash states at the granularity of storage commands.
//
// The rig's SSDs and primary share one blockdev::PowerRail. A baseline
// replay counts the media commands (writes, payload writes, trims,
// flushes) they receive. Cut c replays the workload into a fresh rig whose
// rail cuts power just before command c, so that command and every later
// one is dropped while the cache runs on, unaware; the harness then
// restores power, reboots (a fresh SrcCache over the surviving media), runs
// recovery, and asserts:
//
//   1. recovery succeeds and the rebuilt state passes verify_consistency();
//   2. a cut inside one seal's stripe writes (MS, data and ME, one SSD
//      after another) recovers the state of the cut just before that seal
//      or of the cut just after it: how much of a torn stripe reached media
//      never shows, beyond what its redundancy rebuilds;
//   3. every recovered block's content is a value that was actually written
//      to that LBA (tag-history membership: no torn or cross-wired state is
//      ever admitted);
//   4. durability is monotone: once a version of an LBA survives recovery at
//      cut c, no later cut may regress it to an older version — except
//      within the paper's accepted loss window, when a newer acked write
//      superseded the durable copy in RAM and was lost with the cut;
//   5. no block is unrecoverable, and the power-cut fault ledger reconciles
//      (injected == detected + undetected; a cut is detected when recovery
//      discards a torn segment).
//
// With tier_budget_bytes > 0 the replay runs through a compressed DRAM tier
// (tier::TierCache) above the cache. DRAM vanishes at the cut: every dirty
// block resident in the tier is *lost* — an accepted widening of the paper's
// loss window, which invariant 4's newer_write_before escape already covers
// (the lost write was acked after the durable copy, and the cut took it).
// The harness fires TierCache::on_power_cut at each cut and additionally
// asserts that the tier's own data-loss ledger reconciles: one
// injected+detected record per lost dirty block, nothing silent.
#pragma once

#include <string>
#include <vector>

#include "fault/ledger.hpp"
#include "src_cache/src_cache.hpp"

namespace srcache::fault {

struct CrashSweepConfig {
  // Cache geometry; verify_checksums is forced on so the post-recovery read
  // sweep re-validates every surviving block.
  src::SrcConfig src;
  u64 ops = 400;                 // deterministic replayed requests
  u64 working_set_blocks = 2048;  // 70% of requests write
  u64 seed = 1;
  // 0 cuts before every command of the replay; N > 0 subsamples N evenly
  // spaced cut positions to bound cost.
  u64 max_boundaries = 0;
  // > 0 interposes a compressed DRAM tier with this budget (half of it for
  // dirty data) above the cache for every replay; small budgets force
  // destages, so seals still happen.
  u64 tier_budget_bytes = 0;
};

struct CrashSweepResult {
  u64 commands = 0;          // media commands of the baseline replay
  u64 seals = 0;             // segment seals of the baseline replay
  u64 cases = 0;             // cuts swept, the end of the replay included
  u64 stripe_cuts = 0;       // cuts inside a seal's stripe writes
  u64 torn_segments = 0;     // segments recovery discarded across all cases
  u64 injected = 0;          // power cuts injected (== cases)
  u64 detected = 0;          // cuts that left a discarded torn segment
  u64 undetected = 0;        // cuts that left no torn segment
  u64 tier_lost_dirty = 0;   // dirty tier blocks lost across all cases
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

// Runs the sweep. Deterministic for a given config (workload, command
// sequence and every assertion input derive from cfg.seed).
CrashSweepResult run_crash_sweep(const CrashSweepConfig& cfg);

}  // namespace srcache::fault
