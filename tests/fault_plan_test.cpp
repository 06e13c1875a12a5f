#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "block/mem_disk.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "text_mutator.hpp"
#include "workload/runner.hpp"

namespace srcache::fault {
namespace {

// --- plan parsing ----------------------------------------------------------

TEST(FaultPlan, ParsesEveryAction) {
  auto r = FaultPlan::parse(
      "at=2s fail dev=ssd1; at=500ms heal dev=ssd1;"
      "at=ops:1000 corrupt dev=ssd0 lba=16..64 count=8;"
      "at=30us latent dev=ssd2 lba=0..4;"
      "at=1s degrade dev=primary factor=8 for=250ms;"
      "at=ops:5 powercut");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const FaultPlan plan = std::move(r).take();
  ASSERT_EQ(plan.events().size(), 6u);

  const auto& ev = plan.events();
  EXPECT_EQ(ev[0].kind, FaultKind::kFailStop);
  EXPECT_EQ(ev[0].trigger.kind, Trigger::Kind::kTime);
  EXPECT_EQ(ev[0].trigger.at_time, 2 * sim::kSec);
  EXPECT_EQ(ev[0].dev, 1);

  EXPECT_EQ(ev[1].kind, FaultKind::kHeal);
  EXPECT_EQ(ev[1].trigger.at_time, 500 * sim::kMs);

  EXPECT_EQ(ev[2].kind, FaultKind::kCorrupt);
  EXPECT_EQ(ev[2].trigger.kind, Trigger::Kind::kOps);
  EXPECT_EQ(ev[2].trigger.at_ops, 1000u);
  EXPECT_EQ(ev[2].dev, 0);
  EXPECT_EQ(ev[2].lba_begin, 16u);
  EXPECT_EQ(ev[2].lba_end, 64u);
  EXPECT_EQ(ev[2].count, 8u);

  EXPECT_EQ(ev[3].kind, FaultKind::kLatent);
  EXPECT_EQ(ev[3].trigger.at_time, 30 * sim::kUs);

  EXPECT_EQ(ev[4].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(ev[4].dev, kPrimaryDev);
  EXPECT_DOUBLE_EQ(ev[4].factor, 8.0);
  EXPECT_EQ(ev[4].duration, 250 * sim::kMs);

  EXPECT_EQ(ev[5].kind, FaultKind::kPowerCut);
  EXPECT_EQ(ev[5].trigger.at_ops, 5u);
}

TEST(FaultPlan, DescribeRoundTrips) {
  // A sub-100 us time once came out as "3e-05s", which parse rejects (found
  // by MutatedPlansParseOrReject).
  const char* spec =
      "at=2s fail dev=ssd1; at=ops:100 corrupt dev=ssd0 lba=0..8 count=2; "
      "at=30us latent dev=ssd2 lba=0..4; at=1500ns degrade dev=primary "
      "factor=2.5 for=250us";
  const FaultPlan a = FaultPlan::parse_or_die(spec);
  // describe() re-parses to the identical plan.
  const FaultPlan b = FaultPlan::parse_or_die(a.describe());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i)
    EXPECT_EQ(a.events()[i].describe(), b.events()[i].describe());
}

TEST(FaultPlan, RejectsMalformedClauses) {
  const char* bad[] = {
      "at=2s",                                    // missing action
      "at=2s explode dev=ssd0",                   // unknown action
      "fail dev=ssd0",                            // missing trigger
      "at=2parsecs fail dev=ssd0",                // bad time unit
      "at=ops:abc fail dev=ssd0",                 // bad op count
      "at=2s fail",                               // missing device
      "at=2s fail dev=floppy0",                   // unknown device
      "at=2s fail dev=ssd0 lba=0..8",             // stray key for action
      "at=2s corrupt dev=ssd0",                   // missing range
      "at=2s corrupt dev=ssd0 lba=8..8",          // empty range
      "at=2s corrupt dev=ssd0 lba=9..8",          // backwards range
      "at=2s corrupt dev=primary lba=0..8",       // corrupt targets SSDs
      "at=2s corrupt dev=ssd0 lba=0..8 count=0",  // zero count
      "at=2s latent dev=ssd0 lba=0..8 count=2",   // count on latent
      "at=2s latent dev=ssd0 lba=0..2097153",     // > 1Mi block faults
      "at=2s degrade dev=primary for=1s",         // missing factor
      "at=2s degrade dev=primary factor=0.5 for=1s",  // speed-up, not fault
      "at=2s degrade dev=primary factor=8",       // missing duration
      "at=2s fail fail dev=ssd0",                 // two actions
      "at=2s at=3s fail dev=ssd0",                // duplicate key
      "at=99999999999999999999s fail dev=ssd0",   // past SimTime's range
  };
  for (const char* spec : bad) {
    auto r = FaultPlan::parse(spec);
    EXPECT_FALSE(r.is_ok()) << "accepted: " << spec;
  }
}

TEST(FaultPlan, EmptySpecIsAnEmptyPlan) {
  auto r = FaultPlan::parse("  ;  ; ");
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().empty());
}

// Seeded mutation fuzzing of the plan parser, which takes REPRO_FAULT_PLAN
// from the environment: swaps to plan-syntax characters, insertions,
// deletions, truncations and repeated slices of valid plans, over a fixed
// budget. Every mutant parses or is rejected with an error, and an accepted
// plan's description parses again to the same description.
TEST(FaultPlan, MutatedPlansParseOrReject) {
  const std::string seeds[] = {
      "at=2s fail dev=ssd1; at=500ms heal dev=ssd1",
      "at=ops:1000 corrupt dev=ssd0 lba=16..64 count=8;"
      "at=30us latent dev=ssd2 lba=0..4",
      "at=1s degrade dev=primary factor=8 for=250ms; at=ops:5 powercut",
      "at=ops:500 fail dev=ssd1; at=ops:800 replace dev=ssd1; "
      "at=0s spare count=2",
  };
  common::Xoshiro256 rng(0xFA17);
  u64 accepted = 0, rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    std::string spec = seeds[rng.below(std::size(seeds))];
    for (u64 m = 1 + rng.below(3); m > 0; --m)
      testutil::mutate_text(spec, rng, "0123456789.=:;, ams");
    const auto r = FaultPlan::parse(spec, 7);
    if (!r.is_ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    const std::string once = r.value().describe();
    const auto again = FaultPlan::parse(once, 7);
    ASSERT_TRUE(again.is_ok()) << "input " << i << ": '" << spec << "' -> '"
                               << once << "': " << again.status().to_string();
    ASSERT_EQ(again.value().describe(), once) << "input " << i << ": " << spec;
  }
  // The budget reaches both verdicts.
  EXPECT_GT(accepted, 300u);
  EXPECT_GT(rejected, 1000u);
}

// --- injector --------------------------------------------------------------

struct InjectorRig {
  std::vector<std::unique_ptr<blockdev::MemDisk>> ssds;
  std::unique_ptr<blockdev::MemDisk> primary;

  explicit InjectorRig(u32 n = 2) {
    blockdev::MemDiskConfig mc;
    mc.capacity_blocks = 1024;
    for (u32 i = 0; i < n; ++i)
      ssds.push_back(std::make_unique<blockdev::MemDisk>(mc));
    primary = std::make_unique<blockdev::MemDisk>(mc);
  }

  [[nodiscard]] std::vector<blockdev::BlockDevice*> ptrs() const {
    std::vector<blockdev::BlockDevice*> v;
    for (const auto& s : ssds) v.push_back(s.get());
    return v;
  }
};

TEST(FaultInjector, FiresAtRelativeTimeTriggers) {
  InjectorRig rig;
  FaultInjector inj(
      FaultPlan::parse_or_die("at=1s fail dev=ssd1; at=2s heal dev=ssd1"));
  inj.attach_ssds(rig.ptrs());
  inj.set_epoch(10 * sim::kSec);  // triggers are window-relative

  EXPECT_FALSE(inj.advance(10 * sim::kSec + 999 * sim::kMs, 0));
  EXPECT_FALSE(rig.ssds[1]->failed());
  EXPECT_EQ(inj.first_fire_time(), -1);

  EXPECT_TRUE(inj.advance(11 * sim::kSec, 0));
  EXPECT_TRUE(rig.ssds[1]->failed());
  EXPECT_EQ(inj.first_fire_time(), 11 * sim::kSec);
  EXPECT_EQ(inj.events_fired(), 1u);
  EXPECT_EQ(inj.events_pending(), 1u);

  EXPECT_TRUE(inj.advance(12 * sim::kSec, 0));
  EXPECT_FALSE(rig.ssds[1]->failed());
  EXPECT_EQ(inj.events_pending(), 0u);
  // Nothing left to fire.
  EXPECT_FALSE(inj.advance(60 * sim::kSec, 1 << 20));
}

TEST(FaultInjector, FiresAtOpCountTriggers) {
  InjectorRig rig;
  FaultInjector inj(
      FaultPlan::parse_or_die("at=ops:100 latent dev=ssd0 lba=0..16"));
  inj.attach_ssds(rig.ptrs());

  EXPECT_FALSE(inj.advance(1, 99));
  EXPECT_TRUE(inj.advance(2, 100));
  EXPECT_EQ(inj.ledger().injected(), 16u);
  EXPECT_EQ(inj.ledger().undetected(), 16u);  // nothing has read them yet
  u64 tag = 0;
  auto r = rig.ssds[0]->read(100, 3, 1, std::span<u64>(&tag, 1));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, ErrorCode::kMediaError);
  // Remap-on-write clears the error.
  const u64 fresh = 42;
  rig.ssds[0]->write(200, 3, 1, std::span<const u64>(&fresh, 1));
  r = rig.ssds[0]->read(300, 3, 1, std::span<u64>(&tag, 1));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(tag, fresh);
}

TEST(FaultInjector, SeededCorruptionIsDeterministic) {
  auto run_once = [] {
    InjectorRig rig;
    // Known content first so corruption is observable.
    std::vector<u64> tags(256);
    for (u64 i = 0; i < tags.size(); ++i) tags[i] = 0x1000 + i;
    rig.ssds[0]->write(0, 0, static_cast<u32>(tags.size()),
                       std::span<const u64>(tags));
    FaultInjector inj(FaultPlan::parse_or_die(
        "at=1s corrupt dev=ssd0 lba=0..256 count=16", /*seed=*/99));
    inj.attach_ssds(rig.ptrs());
    inj.advance(1 * sim::kSec, 0);
    std::vector<u64> corrupted;
    for (u64 i = 0; i < tags.size(); ++i) {
      u64 tag = 0;
      rig.ssds[0]->read(2 * sim::kSec, i, 1, std::span<u64>(&tag, 1));
      if (tag != tags[i]) corrupted.push_back(i);
    }
    return corrupted;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_LE(a.size(), 16u);
  EXPECT_EQ(a, b);  // same plan + seed => same blocks, bit for bit
}

TEST(FaultInjector, PowercutInvokesCallback) {
  InjectorRig rig;
  FaultInjector inj(FaultPlan::parse_or_die("at=ops:10 powercut"));
  inj.attach_ssds(rig.ptrs());
  sim::SimTime cut_at = -1;
  inj.set_powercut_callback([&cut_at](sim::SimTime t) { cut_at = t; });
  inj.advance(5 * sim::kSec, 10);
  EXPECT_EQ(cut_at, 5 * sim::kSec);
  EXPECT_EQ(inj.ledger().injected(), 1u);
}

TEST(FaultInjector, RejectsPlansTargetingMissingDevices) {
  InjectorRig rig(2);
  FaultInjector inj(FaultPlan::parse_or_die("at=1s fail dev=ssd5"));
  EXPECT_THROW(inj.attach_ssds(rig.ptrs()), std::invalid_argument);
}

TEST(FaultInjector, ExportsReconcilingMetrics) {
  InjectorRig rig;
  FaultInjector inj(
      FaultPlan::parse_or_die("at=1s corrupt dev=ssd0 lba=0..4"));
  inj.attach_ssds(rig.ptrs());
  inj.advance(1 * sim::kSec, 0);
  inj.ledger().record_detected(0, 1);
  inj.ledger().record_repaired(0, 1);

  const workload::FaultCounters c = workload::read_fault_counters(inj);
  EXPECT_EQ(c.injected, 4u);
  EXPECT_EQ(c.detected, 1u);
  EXPECT_EQ(c.repaired, 1u);
  EXPECT_EQ(c.repaired_by_rebuild, 0u);
  EXPECT_EQ(c.undetected, 3u);
  EXPECT_EQ(c.events_fired, 1u);
  EXPECT_EQ(c.injected, c.detected + c.undetected);
}

TEST(FaultLedger, ReinjectionReopensARepairedRecord) {
  FaultLedger led;
  led.record_injected(FaultKind::kCorrupt, 0, 7);
  EXPECT_TRUE(led.record_detected(0, 7));
  EXPECT_TRUE(led.record_repaired(0, 7));
  // Same block corrupted again: must be detected (and repaired) afresh.
  led.record_injected(FaultKind::kCorrupt, 0, 7);
  EXPECT_EQ(led.injected(), 2u);
  EXPECT_EQ(led.detected(), 0u);
  EXPECT_EQ(led.repaired(), 0u);
  EXPECT_TRUE(led.record_detected(0, 7));
  EXPECT_TRUE(led.reconciles());
  // Reports that match no injected fault are ignored.
  EXPECT_FALSE(led.record_detected(3, 1234));
  EXPECT_FALSE(led.record_repaired(3, 1234));
  EXPECT_TRUE(led.reconciles());
}

}  // namespace
}  // namespace srcache::fault
