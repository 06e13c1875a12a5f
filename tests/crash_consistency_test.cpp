// Crash-consistency harness (fault/crash_harness.hpp): power cuts swept
// before every device command must never admit torn state and the
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
  cfg.seed = 1;
  return cfg;
}

// A full sweep: one cut before every command of the replay, plus one after
// the last.
void check(const CrashSweepResult& res, raid::RaidLevel raid) {
  EXPECT_TRUE(res.ok()) << [&res] {
    std::string all;
    for (const auto& v : res.violations) all += v + "\n";
    return all;
  }();
  EXPECT_GT(res.seals, 0u);
  EXPECT_EQ(res.cases, res.commands + 1);
  // Each seal writes MS, data and ME to each of the 4 SSDs: 11 cuts fall
  // strictly inside its stripe.
  EXPECT_EQ(res.stripe_cuts, res.seals * 11);
  EXPECT_EQ(res.injected, res.cases);
  EXPECT_EQ(res.injected, res.detected + res.undetected);
  EXPECT_GE(res.torn_segments, res.detected);
  // A cut tears a segment only inside its stripe. Without redundancy every
  // such cut does; parity or a mirror keeps the segment once the SSDs still
  // missing their chunks are few enough to rebuild.
  if (raid == raid::RaidLevel::kRaid0) {
    EXPECT_EQ(res.detected, res.stripe_cuts);
  } else {
    EXPECT_GT(res.detected, 0u);
    EXPECT_LT(res.detected, res.stripe_cuts);
  }
}

TEST(CrashConsistency, SweepHoldsUnderRaid5) {
  check(run_crash_sweep(sweep_config(raid::RaidLevel::kRaid5)),
        raid::RaidLevel::kRaid5);
}

TEST(CrashConsistency, SweepHoldsUnderRaid0) {
  check(run_crash_sweep(sweep_config(raid::RaidLevel::kRaid0)),
        raid::RaidLevel::kRaid0);
}

TEST(CrashConsistency, SweepHoldsUnderRaid1) {
  check(run_crash_sweep(sweep_config(raid::RaidLevel::kRaid1)),
        raid::RaidLevel::kRaid1);
}

TEST(CrashConsistency, FullSweepOnATinyWorkload) {
  // Every command of a short workload.
  CrashSweepConfig cfg = sweep_config(raid::RaidLevel::kRaid5);
  cfg.ops = 120;
  check(run_crash_sweep(cfg), raid::RaidLevel::kRaid5);
}

TEST(CrashConsistency, DeterministicForASeed) {
  const CrashSweepConfig cfg = sweep_config(raid::RaidLevel::kRaid5);
  const CrashSweepResult a = run_crash_sweep(cfg);
  const CrashSweepResult b = run_crash_sweep(cfg);
  EXPECT_EQ(a.commands, b.commands);
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
  return cfg;
}

TEST(CrashConsistency, SweepHoldsWithCompressedTier) {
  const CrashSweepResult res =
      run_crash_sweep(tier_sweep_config(raid::RaidLevel::kRaid5));
  check(res, raid::RaidLevel::kRaid5);
  // The recovery invariants hold AND the widened loss window is accounted:
  // at least one cut caught dirty blocks in DRAM, and every such loss is a
  // ledgered injected+detected pair (check() already proved res.ok(), which
  // includes the tier-ledger reconciliation).
  EXPECT_GT(res.tier_lost_dirty, 0u);
}

TEST(CrashConsistency, TierSweepHoldsUnderRaid0) {
  const CrashSweepResult res =
      run_crash_sweep(tier_sweep_config(raid::RaidLevel::kRaid0));
  check(res, raid::RaidLevel::kRaid0);
  EXPECT_GT(res.tier_lost_dirty, 0u);
}

TEST(CrashConsistency, TierSweepDeterministicForASeed) {
  const CrashSweepConfig cfg = tier_sweep_config(raid::RaidLevel::kRaid5);
  const CrashSweepResult a = run_crash_sweep(cfg);
  const CrashSweepResult b = run_crash_sweep(cfg);
  EXPECT_EQ(a.commands, b.commands);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.torn_segments, b.torn_segments);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.tier_lost_dirty, b.tier_lost_dirty);
  EXPECT_EQ(a.violations, b.violations);
}

}  // namespace
}  // namespace srcache::fault
