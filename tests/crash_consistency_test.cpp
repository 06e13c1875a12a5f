// Crash-consistency harness (fault/crash_harness.hpp): power cuts swept
// across segment-write boundaries must never admit torn state and the
// power-cut fault ledger must reconcile.
#include <gtest/gtest.h>

#include "fault/crash_harness.hpp"
#include "src_cache/small_rig.hpp"

namespace srcache::fault {
namespace {

CrashSweepConfig sweep_config(raid::RaidLevel raid) {
  CrashSweepConfig cfg;
  cfg.src = src::small_config(raid);
  cfg.ops = 300;
  cfg.working_set_blocks = 1024;
  cfg.write_fraction = 0.7;
  cfg.seed = 1;
  cfg.max_boundaries = 10;  // subsample to keep the test fast
  return cfg;
}

void check(const CrashSweepResult& res) {
  EXPECT_TRUE(res.ok()) << [&res] {
    std::string all;
    for (const auto& v : res.violations) all += v + "\n";
    return all;
  }();
  EXPECT_GT(res.boundaries, 0u);
  EXPECT_EQ(res.cases, res.boundaries * 3);  // three cut points per boundary
  EXPECT_EQ(res.injected, res.cases);
  EXPECT_EQ(res.injected, res.detected + res.undetected);
  // A cut after the MS blocks or after the data always leaves a torn
  // segment for recovery to discard (detected); a cut before anything hits
  // media leaves no evidence (undetected). That split is exact.
  EXPECT_EQ(res.detected, 2 * res.boundaries);
  EXPECT_EQ(res.undetected, res.boundaries);
  EXPECT_GE(res.torn_segments, res.detected);
}

TEST(CrashConsistency, SweepHoldsUnderRaid5) {
  check(run_crash_sweep(sweep_config(raid::RaidLevel::kRaid5)));
}

TEST(CrashConsistency, SweepHoldsUnderRaid0) {
  check(run_crash_sweep(sweep_config(raid::RaidLevel::kRaid0)));
}

TEST(CrashConsistency, SweepHoldsUnderRaid1) {
  check(run_crash_sweep(sweep_config(raid::RaidLevel::kRaid1)));
}

TEST(CrashConsistency, FullSweepOnATinyWorkload) {
  // No subsampling: every seal boundary of a short workload.
  CrashSweepConfig cfg = sweep_config(raid::RaidLevel::kRaid5);
  cfg.ops = 120;
  cfg.max_boundaries = 0;
  check(run_crash_sweep(cfg));
}

TEST(CrashConsistency, DeterministicForASeed) {
  const CrashSweepConfig cfg = sweep_config(raid::RaidLevel::kRaid5);
  const CrashSweepResult a = run_crash_sweep(cfg);
  const CrashSweepResult b = run_crash_sweep(cfg);
  EXPECT_EQ(a.boundaries, b.boundaries);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.torn_segments, b.torn_segments);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.violations, b.violations);
}

// A small tier budget forces constant destaging, so segments still seal and
// every cut lands with dirty data split between DRAM and flash.
CrashSweepConfig tier_sweep_config(raid::RaidLevel raid) {
  CrashSweepConfig cfg = sweep_config(raid);
  cfg.tier_budget_bytes = 48 * kBlockSize;
  cfg.tier_dirty_pct = 50;
  return cfg;
}

TEST(CrashConsistency, SweepHoldsWithCompressedTier) {
  const CrashSweepResult res =
      run_crash_sweep(tier_sweep_config(raid::RaidLevel::kRaid5));
  check(res);
  // The recovery invariants hold AND the widened loss window is accounted:
  // at least one cut caught dirty blocks in DRAM, and every such loss is a
  // ledgered injected+detected pair (check() already proved res.ok(), which
  // includes the tier-ledger reconciliation).
  EXPECT_GT(res.tier_lost_dirty, 0u);
}

TEST(CrashConsistency, TierSweepHoldsUnderRaid0) {
  const CrashSweepResult res =
      run_crash_sweep(tier_sweep_config(raid::RaidLevel::kRaid0));
  check(res);
  EXPECT_GT(res.tier_lost_dirty, 0u);
}

TEST(CrashConsistency, TierSweepDeterministicForASeed) {
  const CrashSweepConfig cfg = tier_sweep_config(raid::RaidLevel::kRaid5);
  const CrashSweepResult a = run_crash_sweep(cfg);
  const CrashSweepResult b = run_crash_sweep(cfg);
  EXPECT_EQ(a.boundaries, b.boundaries);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.torn_segments, b.torn_segments);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.tier_lost_dirty, b.tier_lost_dirty);
  EXPECT_EQ(a.violations, b.violations);
}

}  // namespace
}  // namespace srcache::fault
