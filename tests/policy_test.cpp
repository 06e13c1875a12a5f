// src/policy: knob parsing, per-policy state machines over the cache's
// per-entry bits (S3-FIFO queue transitions, SIEVE's visited bit as the
// hot flag, ghost admission evidence), and the through-cache property that
// matters most — data written under any policy survives GC pressure
// (policy-evicted dirty blocks destage, never drop).
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "policy/policy.hpp"
#include "src_test_util.hpp"

namespace srcache::policy {
namespace {

// --- knob parsing ----------------------------------------------------------

TEST(PolicyParse, AcceptsExactNamesOnly) {
  EXPECT_EQ(parse_eviction("paper"), EvictionKind::kPaper);
  EXPECT_EQ(parse_eviction("s3fifo"), EvictionKind::kS3Fifo);
  EXPECT_EQ(parse_eviction("sieve"), EvictionKind::kSieve);
  EXPECT_EQ(parse_admission("always"), AdmissionKind::kAlways);
  EXPECT_EQ(parse_admission("ghost"), AdmissionKind::kGhost);

  for (const char* bad : {"", "Paper", "s3-fifo", "lru", "SIEVE", " sieve"}) {
    EXPECT_FALSE(parse_eviction(bad).has_value()) << bad;
  }
  for (const char* bad : {"", "Always", "banana", "ghost "}) {
    EXPECT_FALSE(parse_admission(bad).has_value()) << bad;
  }
}

TEST(PolicyParse, ToStringRoundTrips) {
  for (auto k : {EvictionKind::kPaper, EvictionKind::kS3Fifo,
                 EvictionKind::kSieve}) {
    EXPECT_EQ(parse_eviction(to_string(k)), k);
  }
  for (auto k : {AdmissionKind::kAlways, AdmissionKind::kGhost}) {
    EXPECT_EQ(parse_admission(to_string(k)), k);
  }
}

// --- per-entry bits --------------------------------------------------------

// The cache's side of the contract, as SrcCache and TierCache keep it: one
// flags byte per resident block, the hot flag set on every hit and cleared
// when GC keeps the block, and the entry dropped on an evict verdict.
class Entries {
 public:
  explicit Entries(EvictionPolicy& p) : p_(p) {}
  void admit(u64 lba, bool dirty = false) {
    u8& f = flags_[lba] = dirty ? kFlagDirty : u8{0};
    p_.on_admit(lba, f);
  }
  void access(u64 lba) {
    u8& f = flags_.at(lba);
    f |= kFlagHot;
    p_.on_access(f);
  }
  bool gc(u64 lba) {
    u8& f = flags_.at(lba);
    const bool keep = p_.keep_on_gc(lba, f);
    if (keep) {
      f &= ~kFlagHot;
    } else {
      flags_.erase(lba);
    }
    return keep;
  }
  [[nodiscard]] bool resident(u64 lba) const { return flags_.contains(lba); }
  [[nodiscard]] u8 flags(u64 lba) const { return flags_.at(lba); }

 private:
  EvictionPolicy& p_;
  std::map<u64, u8> flags_;
};

// --- paper policy ----------------------------------------------------------

TEST(PaperPolicy, KeepsDirtyAlwaysAndCleanIffHot) {
  PaperEviction p;
  u8 hot_clean = kFlagHot, cold_clean = 0, cold_dirty = kFlagDirty,
     hot_dirty = kFlagHot | kFlagDirty;
  EXPECT_TRUE(p.keep_on_gc(1, hot_clean));
  EXPECT_FALSE(p.keep_on_gc(2, cold_clean));
  EXPECT_TRUE(p.keep_on_gc(3, cold_dirty));
  EXPECT_TRUE(p.keep_on_gc(4, hot_dirty));
  EXPECT_EQ(p.stats().gc_kept, 3u);
  EXPECT_EQ(p.stats().gc_evicted, 1u);
}

// --- S3-FIFO ---------------------------------------------------------------

// Which structure holds an lba: the entry's main bit while resident, else
// the policy's ghost or nothing.
enum class Queue { kNone, kSmall, kMain, kGhost };

Queue queue_of(const S3FifoEviction& p, const Entries& c, u64 lba) {
  if (c.resident(lba))
    return S3FifoEviction::in_main(c.flags(lba)) ? Queue::kMain
                                                 : Queue::kSmall;
  return p.in_ghost(lba) ? Queue::kGhost : Queue::kNone;
}

TEST(S3Fifo, ColdCleanSmallBlockDemotesToGhost) {
  S3FifoEviction p(64);
  Entries c(p);
  c.admit(7);
  EXPECT_EQ(queue_of(p, c, 7), Queue::kSmall);
  EXPECT_FALSE(c.gc(7));
  EXPECT_EQ(queue_of(p, c, 7), Queue::kGhost);
  EXPECT_EQ(p.stats().gc_evicted, 1u);
}

TEST(S3Fifo, ReusedSmallBlockPromotesToMain) {
  S3FifoEviction p(64);
  Entries c(p);
  c.admit(7);
  c.access(7);
  EXPECT_TRUE(c.gc(7));
  EXPECT_EQ(queue_of(p, c, 7), Queue::kMain);
  EXPECT_EQ(p.stats().promotions, 1u);
  // Promotion resets the credit: the next wrap without reuse evicts, and a
  // clean main eviction does not enter the ghost.
  EXPECT_FALSE(c.gc(7));
  EXPECT_EQ(queue_of(p, c, 7), Queue::kNone);
}

TEST(S3Fifo, GhostHitReadmitsStraightToMainWithOneCredit) {
  S3FifoEviction p(64);
  Entries c(p);
  c.admit(7);
  ASSERT_FALSE(c.gc(7));  // small -> ghost
  c.admit(7);             // readmission
  EXPECT_EQ(queue_of(p, c, 7), Queue::kMain);
  EXPECT_EQ(p.stats().ghost_hits, 1u);
  // The proven-reuse credit buys exactly one wrap.
  EXPECT_TRUE(c.gc(7));
  EXPECT_FALSE(c.gc(7));
}

TEST(S3Fifo, ColdDirtyGetsTwoExtraWrapsBeforeDestage) {
  S3FifoEviction p(64);
  Entries c(p);
  c.admit(9, /*dirty=*/true);
  // Wrap 1: cold dirty in small is promoted with one credit, not evicted.
  EXPECT_TRUE(c.gc(9));
  EXPECT_EQ(queue_of(p, c, 9), Queue::kMain);
  // Wrap 2: the credit burns.
  EXPECT_TRUE(c.gc(9));
  // Wrap 3: still no reuse — evict (the cache destages it), into the ghost.
  EXPECT_FALSE(c.gc(9));
  EXPECT_EQ(queue_of(p, c, 9), Queue::kGhost);
}

TEST(S3Fifo, AccessesExtendMainSurvivalUpToCap) {
  S3FifoEviction p(64);
  Entries c(p);
  c.admit(3);
  c.access(3);
  ASSERT_TRUE(c.gc(3));  // promoted, freq reset
  EXPECT_EQ(S3FifoEviction::freq(c.flags(3)), 0u);
  for (int i = 0; i < 10; ++i) c.access(3);  // freq caps at 3
  EXPECT_EQ(S3FifoEviction::freq(c.flags(3)), 3u);
  EXPECT_TRUE(c.gc(3));
  EXPECT_TRUE(c.gc(3));
  EXPECT_TRUE(c.gc(3));
  EXPECT_FALSE(c.gc(3));
}

TEST(S3Fifo, GhostFifoIsBounded) {
  S3FifoEviction p(16);  // clamps to the minimum ghost capacity
  Entries c(p);
  ASSERT_EQ(p.ghost_capacity(), 16u);
  for (u64 lba = 0; lba < 17; ++lba) {
    c.admit(lba);
    ASSERT_FALSE(c.gc(lba));
  }
  EXPECT_EQ(queue_of(p, c, 0), Queue::kNone);   // oldest fell off
  EXPECT_EQ(queue_of(p, c, 16), Queue::kGhost);  // newest remembered
}

TEST(S3Fifo, PolicyBitsLeaveTheCachesOwnAlone) {
  S3FifoEviction p(64);
  Entries c(p);
  c.admit(5, /*dirty=*/true);
  for (int i = 0; i < 5; ++i) c.access(5);
  ASSERT_TRUE(c.gc(5));  // small with reuse: promoted
  EXPECT_EQ(c.flags(5) & ~kPolicyFlags, kFlagDirty);
  c.access(5);
  EXPECT_EQ(c.flags(5) & ~kPolicyFlags, kFlagDirty | kFlagHot);
}

// --- SIEVE -----------------------------------------------------------------

TEST(Sieve, VisitedBitBuysExactlyOneWrap) {
  SieveEviction p;
  Entries c(p);
  c.admit(11);
  EXPECT_TRUE(c.resident(11));
  EXPECT_FALSE(c.flags(11) & kFlagHot);
  c.access(11);
  EXPECT_TRUE(c.flags(11) & kFlagHot);
  // The hand passes: kept once, bit cleared.
  EXPECT_TRUE(c.gc(11));
  EXPECT_FALSE(c.flags(11) & kFlagHot);
  // No reuse since: evicted and forgotten.
  EXPECT_FALSE(c.gc(11));
  EXPECT_FALSE(c.resident(11));
}

TEST(Sieve, NeverAccessedBlockEvictsAtFirstWrap) {
  SieveEviction p;
  Entries c(p);
  c.admit(12, /*dirty=*/true);
  EXPECT_FALSE(c.gc(12));
  EXPECT_FALSE(c.resident(12));
  EXPECT_EQ(p.stats().gc_evicted, 1u);
}

// --- admission -------------------------------------------------------------

TEST(Admission, AlwaysAdmitsEverything) {
  AlwaysAdmission a;
  for (u64 lba = 0; lba < 8; ++lba) EXPECT_TRUE(a.admit(lba));
  EXPECT_EQ(a.stats().admitted, 8u);
  EXPECT_EQ(a.stats().rejected, 0u);
}

TEST(Admission, GhostRejectsFirstTouchAdmitsOnReuse) {
  GhostAdmission a(1024);
  EXPECT_FALSE(a.admit(42));  // no evidence yet
  EXPECT_TRUE(a.admit(42));   // remembered: reuse proven
  EXPECT_TRUE(a.admit(42));
  EXPECT_FALSE(a.admit(43));
  EXPECT_EQ(a.stats().rejected, 2u);
  EXPECT_EQ(a.stats().admitted, 2u);
  EXPECT_EQ(a.stats().ghost_hits, 2u);
}

TEST(Admission, GhostDecisionsAreDeterministicFunctionsOfTheSequence) {
  // Two instances fed the same lba sequence must make identical decisions —
  // the property the sharded engine's bit-identity rests on.
  GhostAdmission a(512), b(512);
  common::SplitMix64 rng(7);
  std::vector<u64> seq;
  for (int i = 0; i < 2000; ++i) seq.push_back(rng.next() % 700);
  for (const u64 lba : seq) EXPECT_EQ(a.admit(lba), b.admit(lba)) << lba;
  EXPECT_EQ(a.stats().admitted, b.stats().admitted);
  EXPECT_EQ(a.stats().rejected, b.stats().rejected);
}

TEST(PolicyFactory, BuildsTheRequestedKind) {
  EXPECT_EQ(make_eviction(EvictionKind::kPaper, 64)->kind(),
            EvictionKind::kPaper);
  EXPECT_EQ(make_eviction(EvictionKind::kS3Fifo, 64)->kind(),
            EvictionKind::kS3Fifo);
  EXPECT_EQ(make_eviction(EvictionKind::kSieve, 64)->kind(),
            EvictionKind::kSieve);
  EXPECT_EQ(make_admission(AdmissionKind::kAlways, 64)->kind(),
            AdmissionKind::kAlways);
  EXPECT_EQ(make_admission(AdmissionKind::kGhost, 64)->kind(),
            AdmissionKind::kGhost);
}

// --- through the cache -----------------------------------------------------

// Under every policy combination, dirty data written before heavy GC
// pressure must read back intact: a policy "eviction" of a dirty block is a
// destage to primary, never a drop.
TEST(PolicyThroughCache, DirtyDataSurvivesGcUnderEveryPolicy) {
  for (auto ev : {EvictionKind::kPaper, EvictionKind::kS3Fifo,
                  EvictionKind::kSieve}) {
    for (auto ad : {AdmissionKind::kAlways, AdmissionKind::kGhost}) {
      src::SrcConfig cfg = src::testutil::small_config();
      cfg.eviction = ev;
      cfg.admission = ad;
      src::testutil::Rig rig(cfg);

      const u64 per_sg =
          cfg.segments_per_sg() * cfg.segment_data_slots(true);
      const u64 blocks = (cfg.sg_count() + 2) * per_sg;
      sim::SimTime t = 0;
      for (u64 lba = 0; lba < blocks; ++lba) {
        const u64 tag = 0xBEEF0000 + lba;
        t = rig.write(t, lba, 1, &tag);
      }
      ASSERT_GT(rig.cache->extra().sg_reclaims, 0u)
          << to_string(ev) << "+" << to_string(ad);

      for (u64 lba = 0; lba < blocks; lba += 97) {
        u64 got = 0;
        t = rig.read(t, lba, 1, &got);
        EXPECT_EQ(got, 0xBEEF0000 + lba)
            << to_string(ev) << "+" << to_string(ad) << " lba " << lba;
      }
      EXPECT_TRUE(rig.cache->verify_consistency().is_ok());
    }
  }
}

// The modern policies must actually destage cold dirty data under steady
// overwrite-free pressure (that is the WA mechanism), where the paper
// policy copies it forever.
TEST(PolicyThroughCache, S3FifoDestagesColdDirtyWherePaperCopies) {
  auto destages_under = [](EvictionKind ev) {
    src::SrcConfig cfg = src::testutil::small_config();
    cfg.eviction = ev;
    src::testutil::Rig rig(cfg);
    const u64 per_sg =
        cfg.segments_per_sg() * cfg.segment_data_slots(true);
    const u64 cold = per_sg / 2;  // write-once blocks, never touched again
    const u64 hot_base = u64{1} << 20;
    const u64 hot_span = per_sg;
    sim::SimTime t = 0;
    u64 j = 0;
    // Interleave the cold singles with hot rewrite traffic so no segment
    // group is ever wall-to-wall live (a nearly-full victim is destaged
    // wholesale, bypassing the per-block policy), and utilization stays
    // below UMAX — every destage observed here is the policy's call.
    for (u64 i = 0; i < cold; ++i) {
      t = rig.write(t, i);
      t = rig.write(t, hot_base + j++ % hot_span);
    }
    // Hot rewrites cycle the log: every wrap re-asks the policy about the
    // cold blocks.
    for (u64 k = 0; k < cfg.sg_count() * 6 * per_sg; ++k)
      t = rig.write(t, hot_base + j++ % hot_span);
    EXPECT_GT(rig.cache->extra().s2s_reclaims, 0u);
    EXPECT_EQ(rig.cache->extra().s2d_reclaims, 0u);
    return rig.cache->stats().destage_blocks;
  };
  EXPECT_EQ(destages_under(EvictionKind::kPaper), 0u);
  EXPECT_GT(destages_under(EvictionKind::kS3Fifo), 0u);
}

}  // namespace
}  // namespace srcache::policy
