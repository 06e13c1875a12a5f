// tier::TierCache: compressed DRAM tier unit semantics — write absorption,
// compressed-size budgeting, incompressible bypass, dirty-bound destaging,
// read hits with CPU charges, demotion vs drop, and power-cut loss
// accounting. The inner cache is the small SRC test rig throughout, so
// destages and demotes ride the real provenance-attributed staging paths.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fault/ledger.hpp"
#include "src_test_util.hpp"
#include "tier/tier_cache.hpp"

namespace srcache::tier {
namespace {

using src::testutil::Rig;

TierConfig small_tier(u64 budget_blocks = 64) {
  TierConfig tc;
  tc.budget_bytes = budget_blocks * kBlockSize;
  tc.dirty_pct = 50;
  tc.destage_batch_blocks = 6;
  return tc;
}

sim::SimTime twrite(TierCache& t, sim::SimTime now, u64 lba, u8 comp_pct,
                    u32 n = 1, const u64* tags = nullptr) {
  cache::AppRequest r;
  r.now = now;
  r.is_write = true;
  r.lba = lba;
  r.nblocks = n;
  r.comp_pct = comp_pct;
  r.tags = tags;
  return t.submit(r);
}

sim::SimTime tread(TierCache& t, sim::SimTime now, u64 lba, u8 comp_pct,
                   u32 n = 1, u64* out = nullptr) {
  cache::AppRequest r;
  r.now = now;
  r.lba = lba;
  r.nblocks = n;
  r.comp_pct = comp_pct;
  r.tags_out = out;
  return t.submit(r);
}

TEST(TierConfig, ValidateRejectsBadKnobs) {
  auto bad = [](auto mutate) {
    TierConfig tc;
    mutate(tc);
    EXPECT_THROW(tc.validate(), std::invalid_argument);
  };
  bad([](TierConfig& tc) { tc.budget_bytes = 0; });
  bad([](TierConfig& tc) { tc.dirty_pct = 101; });
  bad([](TierConfig& tc) { tc.cpu_ns_per_byte = -1.0; });
  bad([](TierConfig& tc) { tc.destage_batch_blocks = 0; });
  bad([](TierConfig& tc) { tc.incompressible_pct = 101; });
  EXPECT_NO_THROW(TierConfig{}.validate());
}

TEST(TierCache, AbsorbsCompressibleWritesWithoutTouchingFlash) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  const u64 inner_before = rig.cache->stats().app_write_blocks;
  for (u64 i = 0; i < 16; ++i) twrite(tier, i * 100, i, /*comp_pct=*/50);
  EXPECT_EQ(tier.resident_blocks(), 16u);
  EXPECT_EQ(tier.dirty_blocks(), 16u);
  // Half-compressible: each block costs kBlockSize/2 of budget.
  EXPECT_EQ(tier.resident_compressed_bytes(), 16 * kBlockSize / 2);
  EXPECT_DOUBLE_EQ(tier.tier_stats().compression_ratio(), 0.5);
  // Below the dirty bound nothing reaches the flash cache.
  EXPECT_EQ(rig.cache->stats().app_write_blocks, inner_before);
  EXPECT_EQ(tier.tier_stats().destage_blocks, 0u);
  EXPECT_GT(tier.tier_stats().cpu_compress_ns, 0u);
}

TEST(TierCache, IncompressibleWritesBypassStraightDown) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  const u64 inner_before = rig.cache->stats().app_write_blocks;
  twrite(tier, 0, 0, /*comp_pct=*/100, 4);  // above incompressible_pct
  twrite(tier, 1, 10, /*comp_pct=*/0, 2);   // unstamped: treated the same
  EXPECT_EQ(tier.resident_blocks(), 0u);
  EXPECT_EQ(tier.tier_stats().bypass_blocks, 6u);
  EXPECT_EQ(rig.cache->stats().app_write_blocks, inner_before + 6);
  // No compression CPU was charged for bypassed blocks.
  EXPECT_EQ(tier.tier_stats().cpu_compress_ns, 0u);
}

TEST(TierCache, IncompressibleOverwriteEvictsTheStaleCompressedCopy) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  twrite(tier, 0, 7, /*comp_pct=*/40);
  ASSERT_EQ(tier.resident_blocks(), 1u);
  twrite(tier, 1, 7, /*comp_pct=*/100);  // content became incompressible
  EXPECT_EQ(tier.resident_blocks(), 0u);
  // A later read must come from below, not from a stale DRAM copy.
  u64 tag = 0;
  tread(tier, 2, 7, /*comp_pct=*/100, 1, &tag);
  EXPECT_EQ(tier.tier_stats().hit_blocks, 0u);
}

TEST(TierCache, ReadHitsDecompressAndReturnTheWrittenTag) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  const u64 tag = blockdev::make_tag(42, 1);
  twrite(tier, 0, 42, /*comp_pct=*/60, 1, &tag);
  u64 out = 0;
  tread(tier, 1, 42, /*comp_pct=*/60, 1, &out);
  EXPECT_EQ(out, tag);
  EXPECT_EQ(tier.tier_stats().hit_blocks, 1u);
  EXPECT_EQ(tier.tier_stats().miss_blocks, 0u);
  EXPECT_DOUBLE_EQ(tier.tier_stats().hit_ratio(), 1.0);
  EXPECT_GT(tier.tier_stats().cpu_decompress_ns, 0u);
}

// Regression: csize deltas are unsigned, so a shrinking overwrite must be
// applied subtract-then-add — forming `new - old` directly wraps and
// permanently inflates the resident total, evicting everything forever.
TEST(TierCache, OverwriteWithDifferentCompressibilityKeepsExactAccounting) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  twrite(tier, 0, 5, /*comp_pct=*/90);
  EXPECT_EQ(tier.resident_compressed_bytes(), kBlockSize * 90 / 100);
  twrite(tier, 1, 5, /*comp_pct=*/10);  // shrink
  EXPECT_EQ(tier.resident_compressed_bytes(), kBlockSize * 10 / 100);
  twrite(tier, 2, 5, /*comp_pct=*/80);  // grow again
  EXPECT_EQ(tier.resident_compressed_bytes(), kBlockSize * 80 / 100);
  EXPECT_EQ(tier.resident_blocks(), 1u);
  EXPECT_EQ(tier.dirty_blocks(), 1u);
}

TEST(TierCache, DirtyBoundDestagesOldestInPlace) {
  Rig rig;
  TierConfig tc = small_tier(/*budget_blocks=*/256);
  tc.dirty_pct = 25;  // 64 incompressible blocks' worth of dirty budget
  TierCache tier(tc, rig.cache.get(), rig.cache.get());
  // Enough distinct dirty blocks that the overflow destages more than one
  // inner segment's worth (provenance is attributed when a segment seals).
  for (u64 i = 0; i < 160; ++i) twrite(tier, i, i * 10, /*comp_pct=*/50);
  const TierStats& ts = tier.tier_stats();
  EXPECT_GT(ts.destage_blocks, 0u);
  // Destaged blocks stay resident (clean), they are not evicted.
  EXPECT_EQ(tier.resident_blocks(), 160u);
  EXPECT_LT(tier.dirty_blocks(), 160u);
  EXPECT_LE(tier.dirty_compressed_bytes(),
            tc.budget_bytes / 100 * tc.dirty_pct);
  // The write-back really landed below, attributed to its own cause.
  EXPECT_GT(rig.cache->provenance().cause_bytes(obs::WriteCause::kTierDestage),
            0u);
  EXPECT_NE(rig.cache->residence(0), src::SrcCache::Residence::kAbsent);
}

TEST(TierCache, BudgetEnforcementEvictsToTheCompressedBound) {
  Rig rig;
  TierConfig tc = small_tier(/*budget_blocks=*/32);
  TierCache tier(tc, rig.cache.get(), rig.cache.get());
  for (u64 i = 0; i < 256; ++i) {
    twrite(tier, i * 10, i, /*comp_pct=*/50);
    EXPECT_LE(tier.resident_compressed_bytes(), tc.budget_bytes) << i;
  }
  EXPECT_GT(tier.tier_stats().evict_blocks, 0u);
  // At 50% compressibility the budget holds ~2x its incompressible block
  // count.
  EXPECT_GT(tier.resident_blocks(), 32u);
}

TEST(TierCache, FlushDestagesEveryDirtyBlock) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  for (u64 i = 0; i < 12; ++i) twrite(tier, i * 10, i, /*comp_pct=*/50);
  ASSERT_EQ(tier.dirty_blocks(), 12u);
  tier.flush(1000);
  EXPECT_EQ(tier.dirty_blocks(), 0u);
  EXPECT_EQ(tier.dirty_compressed_bytes(), 0u);
  EXPECT_EQ(tier.resident_blocks(), 12u);  // still cached, just clean
  EXPECT_EQ(tier.tier_stats().destage_blocks, 12u);
}

TEST(TierCache, PowerCutLosesDirtyBlocksAndLedgersEveryOne) {
  Rig rig;
  fault::FaultLedger ledger;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  tier.set_fault_ledger(&ledger);
  for (u64 i = 0; i < 10; ++i) twrite(tier, i * 10, i, /*comp_pct=*/50);
  tier.flush(500);                                         // all clean now
  for (u64 i = 10; i < 14; ++i) twrite(tier, i * 100, i, /*comp_pct=*/50);
  ASSERT_EQ(tier.dirty_blocks(), 4u);
  tier.on_power_cut(2000);
  // DRAM is empty; exactly the dirty blocks were lost, each one ledgered as
  // an injected fault that was immediately detected — never silent.
  EXPECT_EQ(tier.resident_blocks(), 0u);
  EXPECT_EQ(tier.resident_compressed_bytes(), 0u);
  EXPECT_EQ(tier.dirty_blocks(), 0u);
  EXPECT_EQ(tier.tier_stats().lost_dirty_blocks, 4u);
  EXPECT_EQ(ledger.injected(), 4u);
  EXPECT_EQ(ledger.detected(), 4u);
  EXPECT_TRUE(ledger.reconciles());
}

TEST(TierCache, ReadMissFillsAreAdmittedClean) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  // LBAs never written: the inner cache fetches from primary, the tier
  // admits the fill clean.
  tread(tier, 0, 5000, /*comp_pct=*/50, 8);
  EXPECT_EQ(tier.resident_blocks(), 8u);
  EXPECT_EQ(tier.dirty_blocks(), 0u);
  EXPECT_EQ(tier.tier_stats().miss_blocks, 8u);
  // The same read again is now all tier hits.
  tread(tier, 1, 5000, /*comp_pct=*/50, 8);
  EXPECT_EQ(tier.tier_stats().hit_blocks, 8u);
}

TEST(TierCache, IncompressibleReadsAreNeverAdmitted) {
  Rig rig;
  TierCache tier(small_tier(), rig.cache.get(), rig.cache.get());
  tread(tier, 0, 5000, /*comp_pct=*/100, 4);
  EXPECT_EQ(tier.resident_blocks(), 0u);
  EXPECT_EQ(tier.tier_stats().bypass_blocks, 4u);
}

TEST(TierCache, GenericInnerCacheWorksWithoutSrcHooks) {
  // With src == nullptr destages forward as plain writes and clean
  // evictions drop — the tier must not require SrcCache.
  Rig rig;
  TierConfig tc = small_tier(/*budget_blocks=*/8);
  tc.dirty_pct = 25;
  TierCache tier(tc, rig.cache.get(), /*src=*/nullptr);
  for (u64 i = 0; i < 64; ++i) twrite(tier, i * 10, i, /*comp_pct=*/50);
  EXPECT_GT(tier.tier_stats().destage_blocks, 0u);
  EXPECT_GT(rig.cache->stats().app_write_blocks, 0u);
  EXPECT_EQ(tier.tier_stats().demote_blocks, 0u);
  EXPECT_LE(tier.resident_compressed_bytes(), tc.budget_bytes);
}

}  // namespace
}  // namespace srcache::tier
