#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "sim/time.hpp"
#include "sim/timeline.hpp"

namespace srcache::sim {
namespace {

// --- time helpers ------------------------------------------------------------

TEST(SimTimeUnits, Constants) {
  EXPECT_EQ(kUs, 1000);
  EXPECT_EQ(kMs, 1000 * 1000);
  EXPECT_EQ(kSec, 1000 * 1000 * 1000);
}

TEST(SimTimeUnits, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSec), 2.0);
  EXPECT_DOUBLE_EQ(to_ms(3 * kMs), 3.0);
  EXPECT_DOUBLE_EQ(to_us(5 * kUs), 5.0);
}

TEST(SimTimeUnits, MbPerSec) {
  // 100 MB moved in 1 second -> 100 MB/s.
  EXPECT_NEAR(mb_per_sec(100'000'000, kSec), 100.0, 1e-9);
  EXPECT_EQ(mb_per_sec(1, 0), 0.0);
}

TEST(SimTimeUnits, TransferTime) {
  // 1 MB at 100 MB/s = 10 ms.
  EXPECT_EQ(transfer_time(1'000'000, 100.0), 10 * kMs);
  EXPECT_EQ(transfer_time(123, 0.0), 0);
}

// --- ServiceTimeline ---------------------------------------------------------

TEST(ServiceTimeline, IdleStartsImmediately) {
  ServiceTimeline t;
  EXPECT_EQ(t.submit(100, 50), 150);
}

TEST(ServiceTimeline, BusyQueues) {
  ServiceTimeline t;
  EXPECT_EQ(t.submit(0, 100), 100);
  // Submitted at 10 while busy until 100: starts at 100.
  EXPECT_EQ(t.submit(10, 5), 105);
}

TEST(ServiceTimeline, GapLeavesIdleTime) {
  ServiceTimeline t;
  t.submit(0, 10);
  EXPECT_EQ(t.submit(1000, 10), 1010);
  EXPECT_EQ(t.busy_time(), 20);
}

TEST(ServiceTimeline, Backlog) {
  ServiceTimeline t;
  t.submit(0, 100);
  EXPECT_EQ(t.backlog(30), 70);
  EXPECT_EQ(t.backlog(200), 0);
}

TEST(ServiceTimeline, Reset) {
  ServiceTimeline t;
  t.submit(0, 100);
  t.reset();
  EXPECT_EQ(t.free_at(), 0);
  EXPECT_EQ(t.busy_time(), 0);
}

// --- MultiServer -------------------------------------------------------------

TEST(MultiServer, ParallelUnitsOverlap) {
  MultiServer m(4);
  // 4 ops of 100 on 4 units all finish at 100.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(m.submit(0, 100), 100);
  // The 5th queues behind one of them.
  EXPECT_EQ(m.submit(0, 100), 200);
}

TEST(MultiServer, AllIdleAt) {
  MultiServer m(2);
  m.submit(0, 10);
  m.submit(0, 30);
  EXPECT_EQ(m.all_idle_at(), 30);
  EXPECT_EQ(m.earliest_free(), 10);
}

TEST(MultiServer, BatchMatchesIndividualSubmits) {
  MultiServer a(8), b(8);
  const SimTime done_a = a.submit_batch(0, 20, 7);
  SimTime done_b = 0;
  for (int i = 0; i < 20; ++i) done_b = std::max(done_b, b.submit(0, 7));
  EXPECT_EQ(done_a, done_b);
  EXPECT_EQ(a.busy_time(), b.busy_time());
}

TEST(MultiServer, BatchZeroIsNoop) {
  MultiServer m(3);
  EXPECT_EQ(m.submit_batch(42, 0, 100), 42);
  EXPECT_EQ(m.busy_time(), 0);
}

TEST(MultiServer, BatchSmallerThanUnits) {
  MultiServer m(8);
  EXPECT_EQ(m.submit_batch(0, 3, 50), 50);
  EXPECT_EQ(m.busy_time(), 150);
}

// A linear-scan model of the placement rule: each op goes to the first unit
// with the strictly smallest free time, and a batch is the per-share loop
// (count / units ops per share, the first count % units shares one larger,
// each share to the earliest-free unit in turn).
struct ScanReference {
  explicit ScanReference(int units)
      : free_at(static_cast<size_t>(units), 0),
        unit_busy(static_cast<size_t>(units), 0) {}
  SimTime submit(SimTime now, SimTime service) {
    size_t best = 0;
    for (size_t i = 1; i < free_at.size(); ++i)
      if (free_at[i] < free_at[best]) best = i;
    const SimTime start = free_at[best] > now ? free_at[best] : now;
    free_at[best] = start + service;
    unit_busy[best] += service;
    return free_at[best];
  }
  SimTime submit_batch(SimTime now, u64 count, SimTime per_op) {
    const u64 u = free_at.size();
    SimTime last = now;
    for (u64 i = 0; i < u && i < count; ++i) {
      const u64 share = count / u + (i < count % u ? 1 : 0);
      last = std::max(last, submit(now, static_cast<SimTime>(share) * per_op));
    }
    return last;
  }
  // Whether a batch of more than one share can take the one-pass path: the
  // smallest share started on the earliest-free unit ends after the last
  // sharing unit frees up. (A single share is one submit().)
  [[nodiscard]] bool one_pass(SimTime now, u64 count, SimTime per_op) const {
    std::vector<SimTime> sorted = free_at;
    std::sort(sorted.begin(), sorted.end());
    const u64 u = free_at.size();
    const u64 shares = std::min(count, u);
    const auto smallest = static_cast<SimTime>(count >= u ? count / u : 1);
    return std::max(sorted[0], now) + smallest * per_op > sorted[shares - 1];
  }
  [[nodiscard]] SimTime max_free() const {
    return *std::max_element(free_at.begin(), free_at.end());
  }
  [[nodiscard]] SimTime min_free() const {
    return *std::min_element(free_at.begin(), free_at.end());
  }
  std::vector<SimTime> free_at;
  std::vector<SimTime> unit_busy;
};

void expect_same_state(const MultiServer& m, const ScanReference& ref,
                       SimTime busy) {
  for (size_t i = 0; i < ref.free_at.size(); ++i)
    EXPECT_EQ(m.busy_time(i), ref.unit_busy[i]) << "unit " << i;
  EXPECT_EQ(m.busy_time(), busy);
  EXPECT_EQ(m.all_idle_at(), ref.max_free());
  EXPECT_EQ(m.earliest_free(), ref.min_free());
}

// The sorted-key placement must be observably identical to the original
// linear scan (pick the first unit with the strictly smallest free time):
// engine shards hammer submit() and the obs layer snapshots per-unit busy
// time, so any divergence would break bit-identical replay.
TEST(MultiServer, SortedKeysMatchLinearScanReference) {
  for (int units : {1, 2, 3, 8, 17}) {
    MultiServer m(units);
    ScanReference ref(units);
    srcache::common::Xoshiro256 rng(2026u + static_cast<u64>(units));
    SimTime now = 0;
    SimTime busy = 0;
    for (int op = 0; op < 5000; ++op) {
      now += static_cast<SimTime>(rng.below(50));
      // Frequent ties (service times from a tiny set) exercise the
      // lowest-index tie-break; occasional zero-service ops too.
      const SimTime service = static_cast<SimTime>(rng.below(4) * 25);
      busy += service;
      ASSERT_EQ(m.submit(now, service), ref.submit(now, service))
          << "units=" << units << " op=" << op;
    }
    expect_same_state(m, ref, busy);
    m.reset();
    EXPECT_EQ(m.earliest_free(), 0);
    EXPECT_EQ(m.all_idle_at(), 0);
    EXPECT_EQ(m.submit(0, 10), 10);  // the order is rebuilt after reset
  }
}

// submit_batch's one-pass placement against the per-share loop, mixed with
// single submits: counts below, at and above the unit count, zero-service
// batches, ties from a tiny set of service times, and `now` both past every
// free time (an idle array) and inside the backlog.
TEST(MultiServer, BatchMatchesPerShareReference) {
  for (int units : {1, 2, 3, 8, 17, 32, 90}) {
    MultiServer m(units);
    ScanReference ref(units);
    srcache::common::Xoshiro256 rng(7000u + static_cast<u64>(units));
    const auto u = static_cast<u64>(units);
    SimTime now = 0;
    SimTime busy = 0;
    int one_pass = 0;
    int per_share = 0;
    for (int op = 0; op < 20000; ++op) {
      if (rng.chance(0.1)) {
        now = ref.max_free() + static_cast<SimTime>(rng.below(3));  // idle
      } else {
        now += static_cast<SimTime>(rng.below(40));  // backlogged
      }
      const SimTime per_op = static_cast<SimTime>(rng.below(4) * 25);
      if (rng.chance(0.2)) {
        busy += per_op;
        ASSERT_EQ(m.submit(now, per_op), ref.submit(now, per_op))
            << "units=" << units << " op=" << op;
        continue;
      }
      u64 count = 0;
      switch (rng.below(4)) {
        case 0: count = rng.below(u) + 1; break;             // <= units
        case 1: count = u; break;                            // == units
        case 2: count = u + 1 + rng.below(3 * u); break;     // > units
        default: count = rng.below(4 * u + 2); break;        // any, 0 too
      }
      if (std::min(count, u) > 1)
        ++(ref.one_pass(now, count, per_op) ? one_pass : per_share);
      busy += static_cast<SimTime>(count) * per_op;
      ASSERT_EQ(m.submit_batch(now, count, per_op),
                ref.submit_batch(now, count, per_op))
          << "units=" << units << " op=" << op << " count=" << count;
      if (op % 1000 == 0) expect_same_state(m, ref, busy);
    }
    expect_same_state(m, ref, busy);
    if (units == 1) continue;  // every batch is a single share
    // Both placement paths ran.
    EXPECT_GT(one_pass, 0) << "units=" << units;
    EXPECT_GT(per_share, 0) << "units=" << units;
  }
}

// A free time past the packed key's range throws and leaves the server as
// it was, rather than wrapping into a wrong order.
TEST(MultiServer, FreeTimePastPackedKeyThrows) {
  // Four units take 3 index bits, leaving 61 for the free time.
  const SimTime max_free = (SimTime{1} << 61) - 1;
  MultiServer m(4);
  EXPECT_THROW(m.submit(0, max_free + 1), std::overflow_error);
  EXPECT_THROW(m.submit_batch(0, 4, max_free + 1), std::overflow_error);
  EXPECT_THROW(m.submit_batch(0, 2, max_free + 1), std::overflow_error);
  EXPECT_EQ(m.busy_time(), 0);
  EXPECT_EQ(m.all_idle_at(), 0);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(m.busy_time(i), 0);
  EXPECT_EQ(m.submit(0, max_free), max_free);  // the largest that fits
  EXPECT_EQ(m.earliest_free(), 0);
  EXPECT_THROW(m.submit(max_free, 1), std::overflow_error);
  EXPECT_EQ(m.busy_time(), max_free);
}

TEST(MultiServer, PerUnitBusyTimeExposesSkew) {
  MultiServer m(3);
  // One long op lands on the first idle unit; the short ones go elsewhere
  // (earliest-free placement), so the load is visibly skewed per unit even
  // though the aggregate hides it.
  m.submit(0, 300);
  m.submit(0, 10);
  m.submit(0, 10);
  SimTime sum = 0, max_busy = 0, min_busy = m.busy_time();
  for (int i = 0; i < m.units(); ++i) {
    const SimTime b = m.busy_time(static_cast<size_t>(i));
    sum += b;
    max_busy = std::max(max_busy, b);
    min_busy = std::min(min_busy, b);
  }
  EXPECT_EQ(sum, m.busy_time());  // per-unit shares partition the aggregate
  EXPECT_EQ(max_busy, 300);
  EXPECT_EQ(min_busy, 10);
  EXPECT_GT(max_busy, min_busy);  // the skew is observable

  // A symmetric batch spreads evenly: no skew.
  MultiServer even(4);
  even.submit_batch(0, 8, 25);
  for (int i = 0; i < even.units(); ++i)
    EXPECT_EQ(even.busy_time(static_cast<size_t>(i)), 50);

  even.reset();
  for (int i = 0; i < even.units(); ++i)
    EXPECT_EQ(even.busy_time(static_cast<size_t>(i)), 0);
}

TEST(MultiServer, ThroughputScalesWithUnits) {
  // 1000 ops of 10 on k units should take ~10000/k.
  for (int k : {1, 2, 4, 8}) {
    MultiServer m(k);
    const SimTime done = m.submit_batch(0, 1000, 10);
    EXPECT_NEAR(static_cast<double>(done), 10000.0 / k, 10.0 / k + 10);
  }
}

// --- PriorityTimeline --------------------------------------------------------

TEST(PriorityTimeline, ForegroundIgnoresBackgroundBacklog) {
  PriorityTimeline t;
  t.submit_bg(0, 1000 * kMs);  // a huge background blob
  EXPECT_EQ(t.submit_fg(0, 10), 10);  // fg is not delayed by it
}

TEST(PriorityTimeline, BackgroundWaitsForForeground) {
  PriorityTimeline t;
  t.submit_fg(0, 100);
  EXPECT_EQ(t.submit_bg(0, 50), 150);  // behind the fg work
}

TEST(PriorityTimeline, ForegroundDelaysPendingBackground) {
  PriorityTimeline t;
  t.submit_bg(0, 100);      // bg occupies [0, 100)
  t.submit_fg(0, 50);       // fg inserts 50 of work
  // The next bg op sees both: >= 150.
  EXPECT_GE(t.submit_bg(0, 10), 160);
}

TEST(PriorityTimeline, ForegroundQueuesAmongItself) {
  PriorityTimeline t;
  EXPECT_EQ(t.submit_fg(0, 100), 100);
  EXPECT_EQ(t.submit_fg(0, 100), 200);
}

TEST(PriorityTimeline, CapacityConserved) {
  // Total busy time equals the sum of all service regardless of class mix.
  PriorityTimeline t;
  t.submit_fg(0, 10);
  t.submit_bg(0, 20);
  t.submit_fg(5, 30);
  EXPECT_EQ(t.busy_time(), 60);
}

TEST(PriorityTimeline, DispatchBySwitch) {
  PriorityTimeline t;
  EXPECT_EQ(t.submit(0, 10, false), 10);
  EXPECT_EQ(t.submit(0, 10, true), 20);  // queued behind the fg op
}

TEST(PriorityTimeline, ResetClears) {
  PriorityTimeline t;
  t.submit_fg(0, 100);
  t.submit_bg(0, 100);
  t.reset();
  EXPECT_EQ(t.busy_time(), 0);
  EXPECT_EQ(t.submit_fg(0, 5), 5);
}

// --- BandwidthPipe -----------------------------------------------------------

TEST(BandwidthPipe, TransfersAtRate) {
  BandwidthPipe p(100.0);  // 100 MB/s
  EXPECT_EQ(p.transfer(0, 1'000'000), 10 * kMs);
}

TEST(BandwidthPipe, SharedBandwidthSerializes) {
  BandwidthPipe p(100.0);
  p.transfer(0, 1'000'000);
  EXPECT_EQ(p.transfer(0, 1'000'000), 20 * kMs);
}

TEST(BandwidthPipe, BacklogVisible) {
  BandwidthPipe p(100.0);
  p.transfer(0, 2'000'000);
  EXPECT_EQ(p.backlog(0), 20 * kMs);
}

}  // namespace
}  // namespace srcache::sim
