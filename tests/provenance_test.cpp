// Write-provenance ledger: unit semantics (add/delta/merge/json) and the
// exactness contract — for every device, the sum over causes equals the
// device's total written bytes (DeviceStats::write_blocks x kBlockSize),
// per tenant and per device, after workloads that exercise every cause.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "obs/json.hpp"
#include "obs/provenance.hpp"
#include "src_test_util.hpp"
#include "tier/tier_cache.hpp"

namespace srcache::src {
namespace {

using obs::ProvenanceLedger;
using obs::WriteCause;
using testutil::Rig;
using testutil::small_config;

// --- ledger unit semantics -------------------------------------------------

TEST(ProvenanceLedger, AddTotalsAndZeroBytesDropped) {
  ProvenanceLedger a;
  EXPECT_TRUE(a.empty());
  a.add(0, 1, WriteCause::kUserWrite, 4096);
  a.add(0, 1, WriteCause::kUserWrite, 4096);
  a.add(1, obs::kSharedTenant, WriteCause::kParity, 8192);
  a.add(obs::kPrimaryDevice, 2, WriteCause::kDestage, 4096);
  a.add(3, 1, WriteCause::kGcRewrite, 0);  // no-op, creates no cell
  EXPECT_EQ(a.cells().size(), 3u);
  EXPECT_EQ(a.flash_bytes(), 16384u);
  EXPECT_EQ(a.primary_bytes(), 4096u);
  EXPECT_EQ(a.device_bytes(0), 8192u);
  EXPECT_EQ(a.device_bytes(1), 8192u);
  EXPECT_EQ(a.tenant_bytes(1), 8192u);
  EXPECT_EQ(a.tenant_bytes(obs::kSharedTenant), 8192u);
  EXPECT_EQ(a.cause_bytes(WriteCause::kParity), 8192u);
  EXPECT_EQ(a.cause_bytes(WriteCause::kDestage), 4096u);
}

TEST(ProvenanceLedger, DeltaSinceIsExactAndCanonical) {
  ProvenanceLedger a;
  a.add(0, 0, WriteCause::kUserWrite, 4096);
  a.add(1, 0, WriteCause::kParity, 4096);
  const ProvenanceLedger before = a;
  EXPECT_TRUE(a.delta_since(before).empty());  // identical snapshots
  a.add(0, 0, WriteCause::kUserWrite, 8192);
  a.add(2, 1, WriteCause::kMissFill, 4096);
  const ProvenanceLedger d = a.delta_since(before);
  // Untouched cells are dropped from the delta entirely.
  EXPECT_EQ(d.cells().size(), 2u);
  EXPECT_EQ(d.device_bytes(0), 8192u);
  EXPECT_EQ(d.device_bytes(1), 0u);
  EXPECT_EQ(d.device_bytes(2), 4096u);
  // before + delta == after, exactly.
  ProvenanceLedger sum = before;
  sum.merge_add(d);
  EXPECT_EQ(sum.flash_bytes(), a.flash_bytes());
  EXPECT_EQ(sum.cells(), a.cells());
}

TEST(ProvenanceLedger, JsonParsesAndSumsBalance) {
  ProvenanceLedger a;
  a.add(0, 0, WriteCause::kUserWrite, 12288);
  a.add(1, obs::kSharedTenant, WriteCause::kParity, 4096);
  a.add(obs::kPrimaryDevice, 0, WriteCause::kQuotaShed, 8192);
  const auto r = obs::parse_json(a.to_json());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const obs::JsonValue& v = r.value();
  EXPECT_DOUBLE_EQ(v.find("flash_bytes")->number, 16384.0);
  EXPECT_DOUBLE_EQ(v.find("primary_bytes")->number, 8192.0);
  // by_cause sums to the grand total.
  double by_cause = 0.0;
  for (const auto& [name, val] : v.find("by_cause")->object) {
    (void)name;
    by_cause += val.number;
  }
  EXPECT_DOUBLE_EQ(by_cause, 24576.0);
  // devices[] and tenants[] each partition the same total.
  double dev_total = 0.0, ten_total = 0.0;
  for (const auto& e : v.find("devices")->array)
    dev_total += e.find("bytes")->number;
  for (const auto& e : v.find("tenants")->array)
    ten_total += e.find("bytes")->number;
  EXPECT_DOUBLE_EQ(dev_total, 24576.0);
  EXPECT_DOUBLE_EQ(ten_total, 24576.0);
}

// --- exactness against device stats ----------------------------------------

// Sum over causes == total bytes the device actually wrote, for every flash
// device and for primary. MemDisk counts at the block interface, the ledger
// at every call site that issues a write — agreement proves no write path
// is missing or double-counted.
void expect_exact_balance(const Rig& rig) {
  const ProvenanceLedger& led = rig.cache->provenance();
  for (size_t d = 0; d < rig.ssds.size(); ++d) {
    EXPECT_EQ(led.device_bytes(static_cast<u32>(d)),
              rig.ssds[d]->stats().write_blocks * kBlockSize)
        << "flash device " << d;
  }
  EXPECT_EQ(led.primary_bytes(),
            rig.primary->stats().write_blocks * kBlockSize);
  // The tenant axis partitions the same bytes: summing tenant_bytes over
  // every tenant that appears in the ledger must reproduce the grand total.
  std::set<u16> tenants;
  for (const auto& [key, cell] : led.cells()) {
    (void)cell;
    tenants.insert(key.second);
  }
  u64 by_tenant = 0;
  for (u16 t : tenants) by_tenant += led.tenant_bytes(t);
  EXPECT_EQ(by_tenant, led.flash_bytes() + led.primary_bytes());
}

// Writes enough distinct dirty blocks to fill `sgs` segment groups.
void fill_dirty(Rig& rig, double sgs, u64 lba_base = 0) {
  const u64 per_sg =
      rig.cfg.segments_per_sg() * rig.cfg.segment_data_slots(true);
  const u64 blocks = static_cast<u64>(sgs * static_cast<double>(per_sg));
  sim::SimTime t = 0;
  for (u64 i = 0; i < blocks; ++i) t = rig.write(t, lba_base + i);
}

TEST(ProvenanceBalance, FormatIsAllParity) {
  Rig rig;  // format(0) ran in the constructor
  const ProvenanceLedger& led = rig.cache->provenance();
  EXPECT_GT(led.flash_bytes(), 0u);
  EXPECT_EQ(led.flash_bytes(), led.cause_bytes(WriteCause::kParity));
  expect_exact_balance(rig);
}

TEST(ProvenanceBalance, MixedWorkloadExercisesCausesExactly) {
  SrcConfig cfg = small_config();
  cfg.gc = GcPolicy::kSelGc;
  Rig rig(cfg);

  // Fill past capacity: user writes, parity/metadata, then reclamation
  // destages under pressure.
  fill_dirty(rig, static_cast<double>(cfg.sg_count()) + 2.0);
  // Re-overwrite a small working set so Sel-GC copies live blocks forward.
  const u64 per_sg = cfg.segments_per_sg() * cfg.segment_data_slots(true);
  const u64 ws = per_sg * (cfg.sg_count() / 2);
  common::Xoshiro256 rng(7);
  sim::SimTime t = 10 * sim::kSec;
  for (u64 i = 0; i < 4 * ws; ++i) t = rig.write(t, rng.below(ws));
  // Read a range never written (but within primary capacity): miss fills
  // fetched from primary and staged clean.
  for (u64 i = 0; i < 64; ++i) t = rig.read(t, 200000 + i);

  const ProvenanceLedger& led = rig.cache->provenance();
  EXPECT_GT(led.cause_bytes(WriteCause::kUserWrite), 0u);
  EXPECT_GT(led.cause_bytes(WriteCause::kParity), 0u);
  EXPECT_GT(led.cause_bytes(WriteCause::kMissFill), 0u);
  EXPECT_GT(led.cause_bytes(WriteCause::kGcRewrite), 0u);
  EXPECT_GT(led.cause_bytes(WriteCause::kDestage), 0u);
  expect_exact_balance(rig);
}

TEST(ProvenanceBalance, ChecksumRepairIsAttributed) {
  SrcConfig cfg = small_config();
  cfg.raid = raid::RaidLevel::kRaid5;
  Rig rig(cfg);
  // Seal one dirty segment with known tags, then corrupt one data block;
  // the checksum-verified read repairs it in place (repair_remap).
  const u64 cap = rig.cfg.segment_data_slots(true);
  std::vector<u64> tags(cap);
  for (u64 i = 0; i < cap; ++i) {
    tags[i] = 0xF000 + i;
    rig.write(0, i, 1, &tags[i]);
  }
  rig.ssds[0]->corrupt(rig.cfg.layout().data_block(1, 0));  // SG 1, row 0
  for (u64 i = 0; i < cap; ++i) {
    u64 out = 0;
    rig.read(1000, i, 1, &out);
    ASSERT_EQ(out, tags[i]) << i;
  }
  EXPECT_GT(rig.cache->provenance().cause_bytes(WriteCause::kRepairRemap), 0u);
  expect_exact_balance(rig);
}

TEST(ProvenanceBalance, QuotaShedIsAttributedToTheTenant) {
  SrcConfig cfg = small_config();
  Rig rig(cfg);
  // Tenant 1 gets a tiny quota, fills it, then keeps writing: the overflow
  // is shed to primary and must land on (primary, tenant 1, quota_shed).
  rig.cache->set_tenant_quotas({1u << 20, 8});
  sim::SimTime t = 0;
  for (u64 i = 0; i < 256; ++i) {
    cache::AppRequest r;
    r.now = t;
    r.is_write = true;
    r.lba = 1000 + i;
    r.tenant = 1;
    t = rig.cache->submit(r);
  }
  const ProvenanceLedger& led = rig.cache->provenance();
  EXPECT_GT(led.cause_bytes(WriteCause::kQuotaShed), 0u);
  // Shed bytes go to primary, attributed to the over-quota tenant.
  u64 shed_t1 = 0;
  for (const auto& [key, cell] : led.cells()) {
    if (key.first == obs::kPrimaryDevice && key.second == 1)
      shed_t1 += cell[static_cast<size_t>(WriteCause::kQuotaShed)];
  }
  EXPECT_GT(shed_t1, 0u);
  expect_exact_balance(rig);
}

// Tier hand-off writes (destage of tier-dirty data, demotion of clean
// evictions whose flash copy is gone) carry their own causes, and the
// balance invariant must keep holding with a compressed DRAM tier driving
// the cache.
TEST(ProvenanceBalance, TierDestageAndDemoteAreAttributedExactly) {
  Rig rig;
  tier::TierConfig tc;
  tc.budget_bytes = 64 * kBlockSize;
  tc.dirty_pct = 25;
  tc.destage_batch_blocks =
      static_cast<u32>(rig.cfg.segment_data_slots(true));
  tier::TierCache tier(tc, rig.cache.get(), rig.cache.get());
  sim::SimTime t = 0;

  auto tier_write = [&](u64 lba, u8 pct) {
    cache::AppRequest r;
    r.now = ++t;
    r.is_write = true;
    r.lba = lba;
    r.nblocks = 1;
    r.comp_pct = pct;
    t = tier.submit(r);
  };

  // Clean tier residents: read-miss fills of primary-only blocks.
  for (u64 i = 0; i < 64; ++i) {
    cache::AppRequest r;
    r.now = ++t;
    r.lba = 50000 + i;
    r.nblocks = 1;
    r.comp_pct = 50;
    t = tier.submit(r);
  }
  // Churn the flash cache underneath until GC discards those clean copies.
  for (u64 i = 0; i < 8000; ++i) t = rig.write(t, i);
  // Dirty pressure through the tier: destages (dirty bound) and FIFO
  // evictions. The oldest residents are the clean 50000s — now absent
  // below, so their eviction demotes instead of dropping.
  for (u64 i = 0; i < 200; ++i) tier_write(10000 + i, 50);

  const ProvenanceLedger& led = rig.cache->provenance();
  EXPECT_GT(tier.tier_stats().destage_blocks, 0u);
  EXPECT_GT(tier.tier_stats().demote_blocks, 0u);
  EXPECT_GT(led.cause_bytes(WriteCause::kTierDestage), 0u);
  EXPECT_GT(led.cause_bytes(WriteCause::kTierDemote), 0u);
  expect_exact_balance(rig);
}

// --- RunResult window delta ------------------------------------------------

// RunConfig::provenance wires the ledger into the closed loop: the reported
// window delta must balance against the run's own ssd-stats delta — the
// same invariant as the cumulative ledger, but for the measured window.
TEST(ProvenanceBalance, RunnerWindowDeltaMatchesSsdDelta) {
  SrcConfig cfg = small_config();
  Rig rig(cfg);
  workload::FioGen::Config fc;
  fc.span_blocks =
      2 * cfg.num_ssds * cfg.region_bytes_per_ssd / kBlockSize;
  fc.req_blocks = 4;
  fc.read_pct = 30;
  fc.seed = 11;
  workload::FioGen gen(fc);
  engine::DomainSetup dom;
  dom.cache = rig.cache.get();
  for (auto& s : rig.ssds) dom.ssds.push_back(s.get());
  dom.gens = {&gen};
  dom.cfg.threads_per_gen = 2;
  dom.cfg.iodepth = 2;
  dom.cfg.duration = 2 * sim::kSec;
  dom.cfg.warmup_bytes = 4 * MiB;
  dom.cfg.provenance = &rig.cache->provenance();
  const workload::RunResult res =
      engine::ParallelEngine({}).run(1, [&](u32, u32) { return dom; }).merged;

  ASSERT_GT(res.ops, 0u);
  ASSERT_FALSE(res.provenance.empty());
  // Window flash bytes == window ssd write blocks, exactly.
  EXPECT_EQ(res.provenance.flash_bytes(), res.ssd.write_blocks * kBlockSize);
  // And the window is a true delta: cumulative minus window is what the
  // warm-up wrote, which is also non-negative per cause.
  for (size_t c = 0; c < obs::kNumWriteCauses; ++c) {
    const auto cause = static_cast<WriteCause>(c);
    EXPECT_GE(rig.cache->provenance().cause_bytes(cause),
              res.provenance.cause_bytes(cause));
  }
}

}  // namespace
}  // namespace srcache::src
