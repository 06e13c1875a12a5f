#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"

namespace srcache::common {
namespace {

using Ref = std::unordered_map<u64, u64>;

// Full-state comparison: same size, iteration visits every live key exactly
// once with its value, and every reference key is found.
void expect_same(const FlatMap<u64>& m, const Ref& ref) {
  ASSERT_EQ(m.size(), ref.size());
  ASSERT_EQ(m.empty(), ref.empty());
  std::unordered_set<u64> seen;
  for (const auto& [k, v] : m) {
    ASSERT_TRUE(seen.insert(k).second) << "key visited twice: " << k;
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "stale key visited: " << k;
    ASSERT_EQ(v, it->second) << "key " << k;
  }
  ASSERT_EQ(seen.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const u64* got = m.find(k);
    ASSERT_NE(got, nullptr) << "key " << k;
    ASSERT_EQ(*got, v);
  }
}

// `n` random keys whose home slot is `home` in m's current table (a bounded
// search: a hash that cannot reach `home` fails the test, not hangs it).
std::vector<u64> keys_homed_at(const FlatMap<u64>& m, size_t home, size_t n,
                               Xoshiro256& rng) {
  std::vector<u64> out;
  for (u64 tries = 0; out.size() < n && tries < 1'000'000; ++tries) {
    const u64 k = rng.next();
    if (k != FlatMap<u64>::kEmpty && m.bucket(k) == home) out.push_back(k);
  }
  EXPECT_EQ(out.size(), n) << "no keys homed at slot " << home;
  return out;
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps) {
  // Pool of sequential, stride-4096 and random 64-bit keys; up to 600 live
  // keys take the table from 16 to 1024 slots (six doublings).
  Xoshiro256 rng(7);
  std::vector<u64> pool;
  for (u64 i = 0; i < 200; ++i) pool.push_back(i);
  for (u64 i = 0; i < 200; ++i) pool.push_back(i * 4096);
  while (pool.size() < 600) {
    const u64 k = rng.next();
    if (k != FlatMap<u64>::kEmpty) pool.push_back(k);
  }
  FlatMap<u64> m;
  Ref ref;
  size_t max_slots = m.bucket_count();
  // Phases: insert-heavy, erase-heavy, mixed, each ending in a clear but
  // the last; p_insert is the share of emplace/operator[] among the ops.
  for (const double p_insert : {0.8, 0.3, 0.55, 0.8, 0.5}) {
    for (int op = 0; op < 4000; ++op) {
      const u64 key = pool[rng.below(pool.size())];
      const u64 val = rng.next();
      const double dice = rng.uniform();
      if (dice < p_insert / 2) {
        const bool inserted = m.emplace(key, val);
        ASSERT_EQ(inserted, ref.emplace(key, val).second);
      } else if (dice < p_insert) {
        u64& slot = m[key];
        u64& want = ref[key];
        ASSERT_EQ(slot, want);  // value-initialised when absent
        slot = val;
        want = val;
      } else if (dice < p_insert + (1 - p_insert) / 2) {
        ASSERT_EQ(m.erase(key), ref.erase(key));
      } else {
        const auto it = ref.find(key);
        const u64* got = m.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end());
        ASSERT_EQ(m.contains(key), it != ref.end());
        if (it != ref.end()) {
          ASSERT_EQ(*got, it->second);
          ASSERT_EQ(m.at(key), it->second);
        } else {
          EXPECT_THROW((void)m.at(key), std::out_of_range);
        }
      }
      max_slots = std::max(max_slots, m.bucket_count());
      expect_same(m, ref);
    }
    if (p_insert != 0.5) {
      m.clear();
      ref.clear();
      expect_same(m, ref);
    }
  }
  EXPECT_GE(max_slots, 16u << 5);  // at least five doublings
}

TEST(FlatMap, ForcedCollisionsWrapPastTheTableEnd) {
  FlatMap<u64> m;
  Ref ref;
  // Fill to 1000 keys (2048 slots, load ~1/2), then add clusters homed at
  // the last two slots and at slot 0: the first two wrap past the table end
  // into slots 0, 1, ... and collide with the third.
  for (u64 k = 0; k < 1000; ++k) {
    m.emplace(k << 20, k);
    ref.emplace(k << 20, k);
  }
  const size_t slots = m.bucket_count();
  ASSERT_EQ(slots, 2048u);
  Xoshiro256 rng(3);
  std::vector<u64> cluster = keys_homed_at(m, slots - 1, 12, rng);
  for (u64 k : keys_homed_at(m, slots - 2, 6, rng)) cluster.push_back(k);
  for (u64 k : keys_homed_at(m, 0, 6, rng)) cluster.push_back(k);
  ASSERT_EQ(cluster.size(), 24u);
  size_t longest = 0;
  for (u64 k : cluster) {
    ASSERT_TRUE(m.emplace(k, ~k));
    ref.emplace(k, ~k);
    longest = std::max(longest, m.probe_length(k));
  }
  ASSERT_EQ(m.bucket_count(), slots);  // no rehash: the clusters are real
  EXPECT_GE(longest, 12u);  // a last-slot key sits past the wrap
  expect_same(m, ref);
  // Backward-shift erase across the wrap, in a scrambled order, with the
  // collided keys' lookups checked after every erase.
  while (!cluster.empty()) {
    const size_t i = rng.below(cluster.size());
    ASSERT_EQ(m.erase(cluster[i]), 1u);
    ref.erase(cluster[i]);
    cluster[i] = cluster.back();
    cluster.pop_back();
    expect_same(m, ref);
  }
  EXPECT_EQ(m.erase(12345), 0u);
}

TEST(FlatMap, RejectsTheEmptyKey) {
  FlatMap<u64> m;
  const u64 empty = FlatMap<u64>::kEmpty;
  m.emplace(1, 10);
  EXPECT_THROW(m.emplace(empty, 1), std::invalid_argument);
  EXPECT_THROW(m[empty], std::invalid_argument);
  EXPECT_FALSE(m.contains(empty));
  EXPECT_EQ(m.find(empty), nullptr);
  EXPECT_EQ(m.erase(empty), 0u);
  EXPECT_THROW((void)m.at(empty), std::out_of_range);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.at(1), 10u);
}

// --- work bound -------------------------------------------------------------

// Mean probe lengths: over every live key (hit), over absent keys of the
// workload's own pattern (miss), and over random absent keys (miss_any). A
// random key's probe ends at the first empty slot past a uniform home, the
// same scan an erase makes, so miss_any also bounds the erase work.
struct ProbeMeans {
  double hit = 0;
  double miss = 0;
  double miss_any = 0;
};

double mean_probe(const FlatMap<u32>& m, const std::vector<u64>& keys) {
  double sum = 0;
  for (u64 k : keys) sum += static_cast<double>(m.probe_length(k));
  return sum / static_cast<double>(keys.size());
}

// Linear probing at load 7/8 with a random-like hash: ~4.5 slots per hit
// and ~32.5 per miss (Knuth); measured 4.7 and 34.7 at worst on random keys.
// Sequential and strided keys spread evenly under the Fibonacci hash
// (measured <= 1.3 per hit, <= 2.7 per pattern miss, <= 8.3 per random
// miss). A clustering hash blows through these.
constexpr ProbeMeans kRandomBound{6.0, 48.0, 48.0};
constexpr ProbeMeans kStructuredBound{2.0, 4.0, 12.0};
constexpr size_t kSlots = 1u << 16;
constexpr size_t kLive = kSlots / 8 * 7 - 1;  // one short of the grow point
constexpr int kChurn = 1'000'000;

enum class Keys { kSequential, kStride4096, kRandom };

// Fills to kLive keys, then runs kChurn insert+erase pairs: the FIFO key
// patterns erase their oldest key, the random one a random live key. Probe
// means are checked during the fill and at five points of the churn.
void churn_keeps_probes_short(Keys pattern, ProbeMeans bound) {
  Xoshiro256 rng(11);
  const auto key_of = [&](u64 i) -> u64 {
    if (pattern == Keys::kSequential) return i;
    if (pattern == Keys::kStride4096) return i * 4096;
    u64 k = rng.next();
    while (k == FlatMap<u32>::kEmpty) k = rng.next();
    return k;
  };
  FlatMap<u32> m;
  std::deque<u64> fifo;   // live keys, oldest first (FIFO patterns)
  std::vector<u64> live;  // live keys (random pattern)
  u64 next = 0;
  const auto insert_one = [&] {
    const u64 k = key_of(next++);
    if (!m.emplace(k, static_cast<u32>(next))) return;  // random repeat
    if (pattern == Keys::kRandom) {
      live.push_back(k);
    } else {
      fifo.push_back(k);
    }
  };
  const auto erase_one = [&] {
    u64 k;
    if (pattern == Keys::kRandom) {
      const size_t i = rng.below(live.size());
      k = live[i];
      live[i] = live.back();
      live.pop_back();
    } else {
      k = fifo.front();
      fifo.pop_front();
    }
    ASSERT_EQ(m.erase(k), 1u);
  };
  Xoshiro256 any_rng(5);
  const auto check = [&](const char* when) {
    std::vector<u64> present, absent, absent_any;
    for (const auto& [k, v] : m) present.push_back(k);
    // The pattern's absent keys are the next ones it would insert.
    for (u64 i = 0; i < 4096; ++i) {
      const u64 k = pattern == Keys::kRandom ? key_of(0) : key_of(next + i);
      if (!m.contains(k)) absent.push_back(k);
      const u64 r = any_rng.next();
      if (!m.contains(r)) absent_any.push_back(r);
    }
    ASSERT_LE(mean_probe(m, present), bound.hit) << when;
    ASSERT_LE(mean_probe(m, absent), bound.miss) << when;
    ASSERT_LE(mean_probe(m, absent_any), bound.miss_any) << when;
  };
  while (m.size() < kLive) {
    insert_one();
    if (m.size() % 8192 == 0) {
      check("fill");
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  ASSERT_EQ(m.bucket_count(), kSlots);
  for (int step = 1; step <= kChurn; ++step) {
    const size_t before = m.size();
    while (m.size() == before) insert_one();
    erase_one();
    if (step % (kChurn / 5) == 0) {
      check("churn");
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  ASSERT_EQ(m.size(), kLive);
  ASSERT_EQ(m.bucket_count(), kSlots);  // churn at this load never grows
}

TEST(FlatMapWorkBound, SequentialKeysChurnAtMaxLoad) {
  churn_keeps_probes_short(Keys::kSequential, kStructuredBound);
}
TEST(FlatMapWorkBound, Stride4096KeysChurnAtMaxLoad) {
  churn_keeps_probes_short(Keys::kStride4096, kStructuredBound);
}
TEST(FlatMapWorkBound, RandomKeysChurnAtMaxLoad) {
  churn_keeps_probes_short(Keys::kRandom, kRandomBound);
}

}  // namespace
}  // namespace srcache::common
