// tier::TierCache: compressed DRAM tier unit semantics — write absorption,
// compressed-size budgeting, incompressible bypass, dirty-bound destaging,
// read hits with CPU charges, demotion vs drop, and power-cut loss
// accounting. The inner cache is mostly the small SRC test rig, so destages
// and demotes ride the real provenance-attributed staging paths; the golden
// destage-order and dirty-walk work tests record a plain inner cache.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
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

// Every submit in this file is followed by a full audit of the tier.
void audit(const TierCache& t) {
  const Status st = t.verify_consistency();
  EXPECT_TRUE(st.is_ok()) << st.to_string();
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
  const sim::SimTime done = t.submit(r);
  audit(t);
  return done;
}

sim::SimTime tread(TierCache& t, sim::SimTime now, u64 lba, u8 comp_pct,
                   u32 n = 1, u64* out = nullptr) {
  cache::AppRequest r;
  r.now = now;
  r.lba = lba;
  r.nblocks = n;
  r.comp_pct = comp_pct;
  r.tags_out = out;
  const sim::SimTime done = t.submit(r);
  audit(t);
  return done;
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
  twrite(tier, 0, 0, /*comp_pct=*/100, 4);  // above kIncompressiblePct (95)
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

// --- golden destage order ---------------------------------------------------

// An inner cache that folds every write it receives (lba, tag, in arrival
// order) into a running CRC-32C and serves reads from what was written.
class RecordingCache final : public cache::CacheDevice {
 public:
  sim::SimTime submit(const cache::AppRequest& req) override {
    for (u32 i = 0; i < req.nblocks; ++i) {
      const u64 lba = req.lba + i;
      if (req.is_write) {
        const u64 tag = req.tags != nullptr ? req.tags[i] : 0;
        const bool fresh = content_.insert_or_assign(lba, tag).second;
        (fresh ? stats_.write_new_blocks : stats_.write_hit_blocks)++;
        crc_ = common::crc32c_of(lba, crc_);
        crc_ = common::crc32c_of(tag, crc_);
        continue;
      }
      auto it = content_.find(lba);
      const bool hit = it != content_.end();
      (hit ? stats_.read_hit_blocks : stats_.read_miss_blocks)++;
      if (req.tags_out != nullptr)
        req.tags_out[i] = hit ? it->second : blockdev::make_tag(lba, 0);
    }
    (req.is_write ? stats_.app_write_blocks : stats_.app_read_blocks) +=
        req.nblocks;
    return req.now + 50 * sim::kUs;
  }
  sim::SimTime flush(sim::SimTime now) override { return now; }
  [[nodiscard]] const cache::CacheStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] u64 cached_blocks() const override { return content_.size(); }
  [[nodiscard]] u32 write_crc() const { return crc_; }

 private:
  std::unordered_map<u64, u64> content_;
  cache::CacheStats stats_;
  u32 crc_ = 0;
};

struct GoldenRun {
  u32 write_crc = 0;  // inner write stream: (lba, tag) in order
  u32 state_crc = 0;  // TierStats, tier CacheStats and final residency
  TierStats ts;
};

// A seeded random script over a 48-block tier: compressible and
// incompressible writes (overwrites re-dirty clean blocks), read fills,
// flushes and power cuts. The tier is audited after every op.
GoldenRun run_golden_script(policy::EvictionKind kind, u64 seed,
                            u32 dirty_pct) {
  RecordingCache inner;
  TierConfig tc = small_tier(/*budget_blocks=*/48);
  tc.dirty_pct = dirty_pct;
  tc.eviction = kind;
  TierCache tier(tc, &inner);
  common::Xoshiro256 rng(seed);
  sim::SimTime now = 0;
  for (int op = 0; op < 3000; ++op) {
    now += 10 * sim::kUs;
    const u64 dice = rng.below(100);
    const u64 lba = rng.below(160);
    const u32 n = 1 + static_cast<u32>(rng.below(4));
    const u8 pct = static_cast<u8>(rng.range(5, 90));
    if (dice < 45) {
      twrite(tier, now, lba, pct, n);
    } else if (dice < 55) {
      twrite(tier, now, lba, dice % 2 == 0 ? 0 : 97, n);
    } else if (dice < 97) {
      tread(tier, now, lba, dice % 8 == 0 ? 100 : pct, n);
    } else if (dice < 99) {
      tier.flush(now);
    } else {
      tier.on_power_cut(now);
    }
    audit(tier);
  }
  GoldenRun r;
  r.write_crc = inner.write_crc();
  r.ts = tier.tier_stats();
  for (const CounterField<TierStats>& f : kTierStatsFields)
    if (f.counter != nullptr)
      r.state_crc = common::crc32c_of(r.ts.*f.counter, r.state_crc);
  for (const CounterField<cache::CacheStats>& f : cache::kCacheStatsFields)
    r.state_crc = common::crc32c_of(tier.stats().*f.counter, r.state_crc);
  for (u64 v : {tier.resident_blocks(), tier.resident_compressed_bytes(),
                tier.dirty_blocks(), tier.dirty_compressed_bytes()})
    r.state_crc = common::crc32c_of(v, r.state_crc);
  return r;
}

// Pins the exact destage/eviction order of the tier: any drift in which
// block is written back when, or in what the tier counts, moves a CRC.
TEST(TierCache, GoldenDestageOrderPerPolicy) {
  struct Pin {
    policy::EvictionKind kind;
    u64 seed;
    u32 dirty_pct;  // 80 lets dirty blocks reach the FIFO front
    u32 write_crc;
    u32 state_crc;
  };
  const Pin pins[] = {
      {policy::EvictionKind::kPaper, 1, 25, 0x6f847316, 0xd3cae1bf},
      {policy::EvictionKind::kPaper, 2, 25, 0x9bb48b13, 0x3fc4b132},
      {policy::EvictionKind::kPaper, 3, 80, 0x547fd4a5, 0xde89c4ee},
      {policy::EvictionKind::kS3Fifo, 1, 25, 0xee5753cd, 0x42119743},
      {policy::EvictionKind::kS3Fifo, 2, 25, 0x223f0e5d, 0x51ceeb7f},
      {policy::EvictionKind::kS3Fifo, 3, 80, 0x3d1dcc95, 0xb6b8bcf9},
      {policy::EvictionKind::kSieve, 1, 25, 0x6f847316, 0xd3cae1bf},
      {policy::EvictionKind::kSieve, 2, 25, 0x9bb48b13, 0x3fc4b132},
      {policy::EvictionKind::kSieve, 3, 80, 0x9627cb97, 0x73240ea5},
  };
  for (const Pin& p : pins) {
    const GoldenRun r = run_golden_script(p.kind, p.seed, p.dirty_pct);
    std::string ctx = policy::to_string(p.kind);
    ctx += " seed " + std::to_string(p.seed);
    ctx += " dirty " + std::to_string(p.dirty_pct);
    EXPECT_EQ(r.write_crc, p.write_crc) << ctx;
    EXPECT_EQ(r.state_crc, p.state_crc) << ctx;
    // The script reaches every path the pins are meant to cover.
    EXPECT_GT(r.ts.destage_blocks, 0u) << ctx;
    EXPECT_GT(r.ts.drop_blocks, 0u) << ctx;
    EXPECT_GT(r.ts.bypass_blocks, 0u) << ctx;
    EXPECT_GT(r.ts.hit_blocks, 0u) << ctx;
    EXPECT_GT(r.ts.lost_dirty_blocks, 0u) << ctx;
    EXPECT_GT(r.ts.evict_blocks, r.ts.lost_dirty_blocks) << ctx;
  }
}

// Dirty-walk work per destaged block at a residency of `blocks`, under
// random overwrites that re-dirty clean blocks anywhere in the FIFO (each
// one pulls the walk cursor back behind long clean stretches).
double dirty_walk_visits_per_destage(u64 blocks) {
  RecordingCache inner;
  TierConfig tc = small_tier(/*budget_blocks=*/blocks / 2);  // fits at 50%
  tc.dirty_pct = 25;
  TierCache tier(tc, &inner);
  // Plain submits: a per-op audit would cost O(residency) itself.
  cache::AppRequest w;
  w.is_write = true;
  w.comp_pct = 50;
  for (w.lba = 0; w.lba < blocks; ++w.lba, ++w.now) tier.submit(w);
  EXPECT_EQ(tier.resident_blocks(), blocks);
  const u64 visits0 = tier.dirty_walk_visits();
  const u64 destaged0 = tier.tier_stats().destage_blocks;
  common::Xoshiro256 rng(7);
  for (int i = 0; i < 65536; ++i, ++w.now) {
    w.lba = rng.below(blocks);
    tier.submit(w);
  }
  audit(tier);
  EXPECT_EQ(tier.tier_stats().evict_blocks, 0u);
  const u64 destaged = tier.tier_stats().destage_blocks - destaged0;
  EXPECT_GT(destaged, 10000u);
  return static_cast<double>(tier.dirty_walk_visits() - visits0) /
         static_cast<double>(destaged);
}

TEST(TierCache, DirtyWalkWorkPerDestageIsFlatInResidency) {
  const double small = dirty_walk_visits_per_destage(1024);
  const double large = dirty_walk_visits_per_destage(16 * 1024);
  EXPECT_LE(large, 2 * small) << "small " << small << " large " << large;
}

// Holes left behind a front that never moves (no budget pressure, every
// admitted block soon overwritten incompressible) must not grow the ring.
TEST(TierCache, RingStaysBoundedWhenHolesPileUpBehindTheFront) {
  RecordingCache inner;
  TierCache tier(small_tier(), &inner);
  twrite(tier, 0, 1000, /*comp_pct=*/50);  // dirty, at the front throughout
  for (u64 i = 0; i < 20000; ++i) {
    twrite(tier, 2 * i + 1, i % 8, /*comp_pct=*/50);
    twrite(tier, 2 * i + 2, i % 8, /*comp_pct=*/100);  // leaves a hole
  }
  EXPECT_EQ(tier.resident_blocks(), 1u);
  EXPECT_EQ(tier.tier_stats().evict_blocks, 20000u);
  EXPECT_LE(tier.ring_slots(), 2 * tier.resident_blocks() + 4096);
  // The renumbered front block is still found by the dirty walk.
  tier.flush(50000);
  EXPECT_EQ(tier.dirty_blocks(), 0u);
  EXPECT_EQ(tier.tier_stats().destage_blocks, 1u);
}

}  // namespace
}  // namespace srcache::tier
