// engine::ParallelEngine: the determinism contract (bit-identical results
// for every lane and thread count), the epoch-barrier quiescence invariant,
// deterministic delivery of fault and adapt events at barriers, and the
// exactness of the per-domain merge.
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/adaptive.hpp"
#include "block/block_device.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "fault/fault_injector.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "src_test_util.hpp"
#include "tier/tier_cache.hpp"
#include "workload/generators.hpp"
#include "workload/report.hpp"

namespace srcache {
namespace {

using engine::DomainSetup;
using engine::EngineConfig;
using engine::EngineResult;
using engine::EpochView;
using engine::ParallelEngine;

constexpr sim::SimTime kDuration = 200 * sim::kMs;

// One engine domain over the small SRC test rig: the rig, its generators,
// and (optionally) the per-domain fault injector, owned together so they
// outlive the engine run.
struct TestDomain {
  src::testutil::Rig rig;
  std::vector<std::unique_ptr<workload::Generator>> gens;
  std::vector<workload::Generator*> gen_ptrs;
  // Observability sidecar (make_obs_domain only): per-domain op-span tracer
  // with a timeline, owned here so hooks and post-run assertions can reach
  // it.
  std::unique_ptr<obs::SpanTracer> spans;
  // Compressed DRAM tier (make_tier_domain only), interposed above the rig.
  std::unique_ptr<tier::TierCache> tier;
  // Single-domain equivalence configs: a registry over the cache, a fault
  // injector with its rebuilder, and an adaptive partition controller.
  obs::MetricsRegistry registry;
  std::unique_ptr<fault::FaultInjector> fault;
  std::unique_ptr<raid::RebuildManager> rebuild;
  std::unique_ptr<adapt::AdaptiveController> adapt;

  TestDomain() = default;
  explicit TestDomain(const src::SrcConfig& c) : rig(c) {}
};

// Builds domain `index`: a fresh small rig plus two FIO streams whose seeds
// derive from the domain index, mirroring how the bench harness partitions
// a trace group. `cfg` overrides the rig's SRC configuration (policy
// identity tests select eviction/admission through it).
DomainSetup make_test_domain(u32 index, u32 num_tenants = 0,
                             const src::SrcConfig& cfg =
                                 src::testutil::small_config()) {
  auto holder = std::make_shared<TestDomain>(cfg);
  const u64 span =
      holder->rig.cfg.region_bytes_per_ssd / kBlockSize;  // 1k blocks
  workload::FioGen::Config w;
  w.span_blocks = span * 2;  // 2x cache region: forces misses and GC
  w.req_blocks = 8;
  w.read_pct = 0;
  w.seed = 1000 + index;
  workload::FioGen::Config r = w;
  r.read_pct = 70;
  r.seed = 2000 + index;
  r.tenant = num_tenants > 1 ? 1 : 0;
  holder->gens.push_back(std::make_unique<workload::FioGen>(w));
  holder->gens.push_back(std::make_unique<workload::FioGen>(r));
  for (auto& g : holder->gens) holder->gen_ptrs.push_back(g.get());

  DomainSetup s;
  s.cache = holder->rig.cache.get();
  for (auto& d : holder->rig.ssds) s.ssds.push_back(d.get());
  s.gens = holder->gen_ptrs;
  s.cfg.threads_per_gen = 2;
  s.cfg.iodepth = 2;
  s.cfg.duration = kDuration;
  s.cfg.warmup_bytes = 256 * KiB;
  s.cfg.num_tenants = num_tenants;
  s.owned = holder;
  return s;
}

// Like make_test_domain but with the full observability stack wired in:
// op-span tracer (deterministic per-domain seed off the same derivation the
// bench harness uses) with a timeline (runner request events + SRC
// internals), and the cache's write-provenance ledger. The timeline
// capacity is sized so the identity runs never drop an event — asserted by
// the test.
DomainSetup make_obs_domain(u32 index) {
  DomainSetup s = make_test_domain(index);
  auto* holder = static_cast<TestDomain*>(s.owned.get());
  holder->spans = std::make_unique<obs::SpanTracer>(
      common::SplitMix64(9000 + index).next(), /*rate=*/0.25, size_t{1} << 16,
      /*timeline_cap=*/size_t{1} << 20);
  holder->rig.cache->set_span(holder->spans.get());
  s.cfg.spans = holder->spans.get();
  s.cfg.provenance = &holder->rig.cache->provenance();
  return s;
}

// Like make_test_domain but with a compressed DRAM tier interposed above
// the rig's cache, exactly as the bench harness wires it: the engine drives
// the tier, the tier drives the SrcCache, and RunConfig::tier makes the
// closed loop report the TierOutcome block.
DomainSetup make_tier_domain(u32 index, policy::EvictionKind ev) {
  DomainSetup s = make_test_domain(index);
  auto* holder = static_cast<TestDomain*>(s.owned.get());
  tier::TierConfig tc;
  tc.budget_bytes = 96 * kBlockSize;  // small: forces destaging + eviction
  tc.dirty_pct = 50;
  tc.eviction = ev;
  tc.destage_batch_blocks =
      static_cast<u32>(holder->rig.cfg.segment_data_slots(true));
  holder->tier = std::make_unique<tier::TierCache>(
      tc, holder->rig.cache.get(), holder->rig.cache.get());
  s.cache = holder->tier.get();
  s.cfg.tier = holder->tier.get();
  return s;
}

EngineResult run_engine(u32 domains, u32 shards, u32 threads,
                        ParallelEngine* prebuilt = nullptr) {
  EngineConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  ParallelEngine local(cfg);
  ParallelEngine& eng = prebuilt != nullptr ? *prebuilt : local;
  return eng.run(domains,
                 [](u32 index, u32) { return make_test_domain(index); });
}

// The serialized run is the equality witness: every field that lands in
// REPRO_JSON — stats, latency histograms, metrics, merged time series —
// must match byte for byte.
std::string fingerprint(const EngineResult& r) {
  return workload::run_json("engine_test", "run", r.merged);
}

TEST(ParallelEngine, BitIdenticalAcrossShardCounts) {
  const EngineResult serial = run_engine(8, 1, 0);
  ASSERT_GT(serial.merged.ops, 0u);
  const std::string want = fingerprint(serial);
  for (u32 shards : {2u, 3u, 8u}) {
    const EngineResult sharded = run_engine(8, shards, 0);
    EXPECT_EQ(want, fingerprint(sharded)) << shards << " shards";
    EXPECT_EQ(sharded.shards, shards);
  }
}

TEST(ParallelEngine, BitIdenticalAcrossThreadCounts) {
  const std::string one = fingerprint(run_engine(8, 4, 1));
  const std::string four = fingerprint(run_engine(8, 4, 4));
  EXPECT_EQ(one, four);
}

// The REPRO_POLICY/REPRO_ADMIT selections must not weaken the determinism
// contract: for every (eviction, admission) combination, serial, sharded
// and multi-threaded execution produce byte-identical merged results. Each
// domain owns its policy instances, so policy state never crosses shards.
TEST(ParallelEngine, BitIdenticalForEveryPolicyCombination) {
  std::vector<std::string> prints;
  for (auto ev : {policy::EvictionKind::kPaper, policy::EvictionKind::kS3Fifo,
                  policy::EvictionKind::kSieve}) {
    for (auto ad :
         {policy::AdmissionKind::kAlways, policy::AdmissionKind::kGhost}) {
      src::SrcConfig cfg = src::testutil::small_config();
      cfg.eviction = ev;
      cfg.admission = ad;
      const auto make = [&cfg](u32 index, u32) {
        return make_test_domain(index, 0, cfg);
      };
      auto run = [&make](u32 shards, u32 threads) {
        EngineConfig ec;
        ec.shards = shards;
        ec.threads = threads;
        return fingerprint(ParallelEngine(ec).run(4, make));
      };
      const std::string label = std::string(policy::to_string(ev)) + "+" +
                                policy::to_string(ad);
      const std::string serial = run(1, 0);
      EXPECT_EQ(serial, run(4, 1)) << label << " serial vs 4 shards";
      EXPECT_EQ(serial, run(4, 4)) << label << " serial vs 4x4 threads";
      prints.push_back(serial);
    }
  }
  // Sanity: a non-default policy actually changes behaviour (otherwise the
  // identity above would be vacuous). paper+always vs s3fifo+ghost.
  EXPECT_NE(prints[0], prints[3]);
}

// The compressed DRAM tier must not weaken the determinism contract: with a
// tier above every domain (for each eviction policy the REPRO_TIER_POLICY
// knob can select), serial, sharded and multi-threaded execution produce
// byte-identical merged results — including the merged TierOutcome block,
// which run_json serializes into the fingerprint.
TEST(ParallelEngine, TierIsBitIdenticalAcrossShardsAndThreads) {
  const std::string bare = fingerprint(run_engine(4, 1, 0));
  for (auto ev : {policy::EvictionKind::kPaper, policy::EvictionKind::kS3Fifo,
                  policy::EvictionKind::kSieve}) {
    const auto make = [ev](u32 index, u32) {
      return make_tier_domain(index, ev);
    };
    auto run = [&make](u32 shards, u32 threads) {
      EngineConfig ec;
      ec.shards = shards;
      ec.threads = threads;
      return ParallelEngine(ec).run(4, make);
    };
    const EngineResult serial = run(1, 0);
    const std::string label = policy::to_string(ev);
    // The tier really participated: absorbed hits, destaged write-back,
    // and its block is active in the merged result.
    EXPECT_TRUE(serial.merged.tier.active) << label;
    EXPECT_GT(serial.merged.tier.hit_blocks, 0u) << label;
    EXPECT_GT(serial.merged.tier.destage_blocks, 0u) << label;
    EXPECT_GT(serial.merged.tier.compressed_bytes, 0u) << label;
    EXPECT_LT(serial.merged.tier.compressed_bytes,
              serial.merged.tier.uncompressed_bytes)
        << label;
    const std::string want = fingerprint(serial);
    EXPECT_EQ(want, fingerprint(run(4, 1))) << label << " serial vs 4 shards";
    EXPECT_EQ(want, fingerprint(run(4, 4))) << label << " serial vs 4x4";
    // And the tier is not a no-op: the merged outcome differs from the
    // bare-cache run (otherwise the identity above proves nothing).
    EXPECT_NE(want, bare) << label;
  }
}

TEST(ParallelEngine, ShardsBeyondDomainsClampToDomains) {
  const EngineResult r = run_engine(3, 8, 0);
  EXPECT_EQ(r.shards, 3u);
  EXPECT_EQ(fingerprint(r), fingerprint(run_engine(3, 1, 0)));
}

TEST(ParallelEngine, EngineInfoAndPerfShape) {
  const EngineResult r = run_engine(4, 2, 2);
  EXPECT_TRUE(r.merged.engine.active);
  EXPECT_EQ(r.merged.engine.domains, 4u);
  EXPECT_EQ(r.merged.engine.epochs, r.epochs);
  ASSERT_EQ(r.merged.engine.per_domain.size(), 4u);
  ASSERT_EQ(r.per_domain.size(), 4u);
  u64 ops = 0, bytes = 0;
  for (size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(r.merged.engine.per_domain[d].ops, r.per_domain[d].ops);
    ops += r.per_domain[d].ops;
    bytes += r.per_domain[d].bytes;
  }
  EXPECT_EQ(r.merged.ops, ops);
  EXPECT_EQ(r.merged.bytes, bytes);
  // Per-shard perf covers every domain exactly once (lane d runs domains
  // d, d+shards, ...).
  ASSERT_EQ(r.per_shard.size(), 2u);
  EXPECT_EQ(r.per_shard[0].domains + r.per_shard[1].domains, 4u);
  EXPECT_EQ(r.per_shard[0].ops + r.per_shard[1].ops, ops);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(ParallelEngine, MergeRecomputesDerivedMetrics) {
  const EngineResult r = run_engine(4, 2, 0);
  const workload::RunResult again = engine::merge_results(r.per_domain);
  // The merged run serializes with its engine block.
  EXPECT_NE(workload::run_json("t", "r", r.merged).find("\"engine\""),
            std::string::npos);
  // merge_results itself is deterministic and pure.
  EXPECT_EQ(again.ops, r.merged.ops);
  EXPECT_DOUBLE_EQ(again.throughput_mbps, r.merged.throughput_mbps);
  EXPECT_DOUBLE_EQ(again.hit_ratio, r.merged.hit_ratio);
  EXPECT_DOUBLE_EQ(again.io_amplification, r.merged.io_amplification);
  // Derived doubles come from the exact integer aggregates.
  EXPECT_DOUBLE_EQ(
      again.throughput_mbps,
      static_cast<double>(again.bytes) / 1e6 / again.seconds);
}

TEST(ParallelEngine, RejectsMisconfiguration) {
  EngineConfig cfg;
  ParallelEngine eng(cfg);
  EXPECT_THROW(eng.run(0, [](u32, u32) { return make_test_domain(0); }),
               std::invalid_argument);
  EXPECT_THROW(eng.run(1, engine::DomainFactory{}), std::invalid_argument);
  // Domains disagreeing on duration break the shared barrier schedule.
  EXPECT_THROW(eng.run(2,
                       [](u32 index, u32) {
                         DomainSetup s = make_test_domain(index);
                         if (index == 1) s.cfg.duration = kDuration / 2;
                         return s;
                       }),
               std::invalid_argument);
  EXPECT_THROW(eng.run(1,
                       [](u32, u32) {
                         DomainSetup s;  // no cache
                         return s;
                       }),
               std::invalid_argument);
}

// --- epoch barriers --------------------------------------------------------

// At every barrier: hooks run on the coordinator against quiescent domains
// (no pending completion before the barrier time), in registration order,
// observing an identical deterministic sequence regardless of shard count.
TEST(ParallelEngine, EpochBarrierQuiescenceAndOrdering) {
  auto run_with_probe = [](u32 shards) {
    EngineConfig cfg;
    cfg.shards = shards;
    ParallelEngine eng(cfg);
    std::vector<std::string> seq;
    eng.add_epoch_hook([&seq](const EpochView& v) {
      std::string line = "epoch " + std::to_string(v.epoch) + " @" +
                         std::to_string(v.rel_end) + ":";
      for (const auto& dom : *v.domains) {
        // Quiescence: nothing pending strictly before the barrier.
        EXPECT_GE(dom->rel_next_event(), v.rel_end)
            << "domain " << dom->index() << " epoch " << v.epoch;
        line += " " + std::to_string(dom->ops());
      }
      seq.push_back(line);
    });
    eng.add_epoch_hook([&seq](const EpochView& v) {
      seq.push_back("second hook " + std::to_string(v.epoch));
    });
    const EngineResult r =
        eng.run(4, [](u32 index, u32) { return make_test_domain(index); });
    EXPECT_EQ(r.epochs, 8u);  // one barrier per eighth of the window
    // Hooks ran in registration order at every barrier.
    EXPECT_EQ(seq.size(), 2u * r.epochs);
    for (u32 e = 0; e < r.epochs; ++e) {
      EXPECT_EQ(seq[2 * e].rfind("epoch " + std::to_string(e), 0), 0u);
      EXPECT_EQ(seq[2 * e + 1], "second hook " + std::to_string(e));
    }
    return seq;
  };
  const std::vector<std::string> serial = run_with_probe(1);
  const std::vector<std::string> sharded = run_with_probe(4);
  EXPECT_EQ(serial, sharded);
}

// A fault-plan event delivered at a barrier (fail SSD 0 of every domain at
// epoch 1) must change the outcome — the delivery really happened — and the
// changed outcome must still be bit-identical across shard counts.
TEST(ParallelEngine, FaultDeliveryAtBarrierIsDeterministic) {
  auto run_with_fault = [](u32 shards) {
    EngineConfig cfg;
    cfg.shards = shards;
    ParallelEngine eng(cfg);
    eng.add_epoch_hook([](const EpochView& v) {
      if (v.epoch != 1) return;
      for (const auto& dom : *v.domains) dom->ssds()[0]->fail();
    });
    return fingerprint(
        eng.run(4, [](u32 index, u32) { return make_test_domain(index); }));
  };
  const std::string baseline = fingerprint(run_engine(4, 1, 0, nullptr));
  const std::string faulted1 = run_with_fault(1);
  const std::string faulted4 = run_with_fault(4);
  EXPECT_EQ(faulted1, faulted4);
  EXPECT_NE(faulted1, baseline);
}

// Adapt-style quota decisions delivered at a barrier (shrink tenant 0's
// share on every domain's cache at epoch 2): same contract as faults.
TEST(ParallelEngine, AdaptQuotaDeliveryAtBarrierIsDeterministic) {
  auto run_with_quotas = [](u32 shards) {
    EngineConfig cfg;
    cfg.shards = shards;
    ParallelEngine eng(cfg);
    // The factory records each domain's concrete SrcCache so the hook can
    // reach set_tenant_quotas (ShardDomain exposes the CacheDevice base).
    auto caches = std::make_shared<std::vector<src::SrcCache*>>(4, nullptr);
    eng.add_epoch_hook([caches](const EpochView& v) {
      if (v.epoch != 2) return;
      for (const auto& dom : *v.domains) {
        src::SrcCache* c = (*caches)[dom->index()];
        ASSERT_NE(c, nullptr);
        c->set_tenant_quotas({256, 128});
      }
    });
    const EngineResult r = eng.run(4, [caches](u32 index, u32) {
      DomainSetup s = make_test_domain(index, /*num_tenants=*/2);
      auto* holder = static_cast<TestDomain*>(s.owned.get());
      (*caches)[index] = holder->rig.cache.get();
      return s;
    });
    EXPECT_FALSE(r.merged.tenants.empty());
    return fingerprint(r);
  };
  EXPECT_EQ(run_with_quotas(1), run_with_quotas(4));
}

// --- observability under the engine ----------------------------------------

// Span tracing and the provenance ledger must not perturb the simulation:
// with both enabled in every domain, the fingerprint (which now serializes
// the spans and provenance blocks too) stays bit-identical across shard and
// thread counts. The per-domain traces must also retain every event — a
// dropped event would mean the ring silently truncated the timeline the
// identity claim is made over.
TEST(ParallelEngine, SpansAndLedgerPreserveIdentityWithZeroTraceDrops) {
  auto run_obs = [](u32 shards, u32 threads) {
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    ParallelEngine eng(cfg);
    // Keep the domain holders alive past run() so the tracers can be
    // inspected after the engine tears the rigs down.
    auto holders =
        std::make_shared<std::vector<std::shared_ptr<TestDomain>>>(4);
    const EngineResult r = eng.run(4, [holders](u32 index, u32) {
      DomainSetup s = make_obs_domain(index);
      (*holders)[index] = std::static_pointer_cast<TestDomain>(s.owned);
      return s;
    });
    for (const auto& d : *holders) {
      EXPECT_NE(d, nullptr);
      if (d == nullptr) continue;
      EXPECT_EQ(d->spans->timeline_dropped(), 0u) << "timeline truncated";
      EXPECT_GT(d->spans->timeline().size(), 0u);
    }
    // Both observability channels actually fired.
    EXPECT_FALSE(r.merged.provenance.empty());
    EXPECT_TRUE(r.merged.spans.active);
    EXPECT_GT(r.merged.spans.ops_sampled, 0u);
    EXPECT_GT(r.merged.spans.spans, r.merged.spans.ops_sampled);
    return fingerprint(r);
  };
  const std::string serial = run_obs(1, 0);
  EXPECT_EQ(serial, run_obs(4, 0));
  EXPECT_EQ(serial, run_obs(4, 4));
}

// An SLO watchdog fed cumulative merged state at every barrier (the same
// hook shape the bench harness installs) produces a verdict stream that is
// part of the fingerprint and bit-identical across shard counts.
TEST(ParallelEngine, SloWatchdogAtBarriersIsDeterministic) {
  auto run_slo = [](u32 shards) {
    EngineConfig cfg;
    cfg.shards = shards;
    ParallelEngine eng(cfg);
    obs::SloPolicy policy;
    policy.min_throughput_mbps = 1e9;  // unreachable: every epoch violates
    policy.max_degraded_domains = 0;   // no device ever fails here
    auto watchdog = std::make_shared<obs::SloWatchdog>(policy);
    eng.add_epoch_hook([watchdog](const EpochView& v) {
      u64 ops = 0;
      u64 bytes = 0;
      common::Histogram reads;
      common::Histogram writes;
      u32 degraded = 0;
      for (const auto& dom : *v.domains) {
        ops += dom->ops();
        bytes += dom->bytes();
        reads.merge(dom->latency().reads());
        writes.merge(dom->latency().writes());
        bool any_failed = false;
        for (const blockdev::BlockDevice* d : dom->ssds())
          any_failed = any_failed || d->failed();
        if (any_failed) ++degraded;
      }
      watchdog->observe_epoch(v.rel_end, ops, bytes, reads, writes, degraded);
    });
    EngineResult r =
        eng.run(4, [](u32 index, u32) { return make_test_domain(index); });
    r.merged.slo = watchdog->outcome();
    EXPECT_TRUE(r.merged.slo.active);
    EXPECT_EQ(r.merged.slo.epochs, r.epochs);
    EXPECT_EQ(r.merged.slo.violations, r.epochs);  // throughput never met
    EXPECT_EQ(r.merged.slo.degraded_epochs, 0u);
    EXPECT_TRUE(r.merged.slo.breached);
    return fingerprint(r);
  };
  EXPECT_EQ(run_slo(1), run_slo(4));
}

// --- single-domain equivalence ---------------------------------------------

// The same domain driven straight through its ClosedLoop, without the
// engine: the reference a single-stack run(1, ...) must equal.
workload::RunResult straight_through(const DomainSetup& s) {
  workload::ClosedLoop loop(s.cache, s.ssds, s.gens, s.cfg);
  loop.warmup();
  loop.start();
  loop.run_until(loop.window_end() + 1);
  return loop.finish();
}

// A single-stack experiment is one engine domain. For every feature a
// RunConfig can attach, run(1, ...) must serialize exactly like the loop
// driven straight through, up to the two things the engine adds: the
// "engine" block, and a time series anchored at the window start (0)
// rather than at absolute virtual time.
TEST(ParallelEngine, SingleDomainEqualsStraightThroughLoop) {
  const auto with_registry = [] {
    DomainSetup s = make_test_domain(0);
    auto* h = static_cast<TestDomain*>(s.owned.get());
    h->rig.cache->register_metrics(obs::Scope(h->registry, "src"));
    s.cfg.registry = &h->registry;
    s.cfg.timeseries_interval = kDuration / 10;
    return s;
  };
  const auto with_fault_rebuild = [] {
    DomainSetup s = make_test_domain(0);
    auto* h = static_cast<TestDomain*>(s.owned.get());
    h->fault =
        std::make_unique<fault::FaultInjector>(fault::FaultPlan::parse_or_die(
            "at=ops:100 fail dev=ssd1; at=ops:300 replace dev=ssd1", 7));
    h->fault->attach_ssds(s.ssds);
    h->fault->attach_primary(h->rig.primary.get());
    h->rebuild =
        std::make_unique<raid::RebuildManager>(raid::RebuildConfig{}, s.ssds);
    src::wire_faults(*h->rig.cache, *h->fault, h->rebuild.get());
    s.cfg.fault = h->fault.get();
    s.cfg.rebuild = h->rebuild.get();
    return s;
  };
  const auto with_adapt = [] {
    DomainSetup s = make_test_domain(0, /*num_tenants=*/2);
    auto* h = static_cast<TestDomain*>(s.owned.get());
    adapt::AdaptConfig ac;
    ac.num_tenants = 2;
    ac.capacity_blocks = h->rig.cache->config().capacity_blocks();
    ac.epoch = kDuration / 4;
    src::SrcCache* cache = h->rig.cache.get();
    h->adapt = std::make_unique<adapt::AdaptiveController>(
        ac, [cache](const std::vector<u64>& q) {
          cache->set_tenant_quotas(q);
        });
    s.cfg.adapt = h->adapt.get();
    return s;
  };
  const auto with_max_ops = [] {
    DomainSetup s = make_test_domain(0);
    s.cfg.duration = 10 * kDuration;  // the op budget ends the run
    s.cfg.max_ops = 500;
    return s;
  };
  // Each config with the check that its feature really engaged.
  struct Config {
    const char* name;
    std::function<DomainSetup()> make;
    std::function<bool(const workload::RunResult&)> engaged;
  };
  const Config configs[] = {
      {"registry+timeseries", with_registry,
       [](const workload::RunResult& r) {
         return !r.timeseries.empty() && r.metrics.counters.size() > 1;
       }},
      {"fault+rebuild", with_fault_rebuild,
       [](const workload::RunResult& r) {
         return r.fault.events_fired == 2 && r.rebuild.rebuilds_started == 1;
       }},
      {"adapt+2tenants", with_adapt,
       [](const workload::RunResult& r) {
         return r.adapt_epochs > 0 && r.tenants.size() == 2;
       }},
      {"provenance+spans", [] { return make_obs_domain(0); },
       [](const workload::RunResult& r) {
         return !r.provenance.empty() && r.spans.active;
       }},
      {"tier",
       [] { return make_tier_domain(0, policy::EvictionKind::kPaper); },
       [](const workload::RunResult& r) { return r.tier.active; }},
      {"max_ops", with_max_ops,
       [](const workload::RunResult& r) { return r.ops == 500; }},
  };
  for (const auto& [name, make, engaged] : configs) {
    SCOPED_TRACE(name);
    const DomainSetup ref_setup = make();
    workload::RunResult ref = straight_through(ref_setup);
    EXPECT_TRUE(engaged(ref));
    obs::TimeSeries& ts = ref.timeseries;
    for (obs::TimeSample& sample : ts.samples) {
      sample.start -= ts.window_start;
      sample.end -= ts.window_start;
    }
    ts.window_start = 0;

    EngineResult er =
        ParallelEngine({}).run(1, [&](u32, u32) { return make(); });
    EXPECT_TRUE(er.merged.engine.active);
    er.merged.engine = {};
    EXPECT_EQ(workload::run_json("engine_test", name, ref),
              workload::run_json("engine_test", name, er.merged));
  }
}

// --- time-series merge edge cases ------------------------------------------

// Domains may close different sample counts (a domain that finished its last
// request just before a boundary closes one fewer interval). The merge
// matches samples by index up to the *maximum* count: indices past a
// domain's end simply get no contribution from it, and "util.*" series
// average over the domains actually reporting at that index — never over
// the full domain count.
TEST(MergeResults, TimeseriesMergesUnequalSampleCountsByIndex) {
  const sim::SimTime iv = 100 * sim::kMs;
  workload::RunResult a;
  a.seconds = 0.2;
  a.timeseries.interval = iv;
  a.timeseries.window_start = 10 * iv;  // anchors differ between domains
  obs::TimeSample a0;
  a0.start = 10 * iv;
  a0.end = 11 * iv;
  a0.ops = 10;
  a0.bytes = 1000000;
  a0.app_blocks = 10;
  a0.hits = 6;
  a0.misses = 4;
  a0.io_amplification = 2.0;
  a0.series["gc.erases"] = 3.0;
  a0.series["util.ssd.0.nand"] = 0.5;
  obs::TimeSample a1 = a0;
  a1.start = 11 * iv;
  a1.end = 12 * iv;
  a1.ops = 20;
  a1.bytes = 2000000;
  a1.app_blocks = 20;
  a1.hits = 20;
  a1.misses = 0;
  a1.io_amplification = 1.5;
  a1.series.clear();
  a1.series["util.ssd.0.nand"] = 1.0;
  a.timeseries.samples = {a0, a1};

  workload::RunResult b;
  b.seconds = 0.2;
  b.timeseries.interval = iv;
  b.timeseries.window_start = 50 * iv;
  obs::TimeSample b0;
  b0.start = 50 * iv;
  b0.end = 51 * iv;
  b0.ops = 30;
  b0.bytes = 3000000;
  b0.app_blocks = 30;
  b0.hits = 0;
  b0.misses = 30;
  b0.io_amplification = 4.0;
  b0.series["gc.erases"] = 1.0;
  b0.series["util.ssd.0.nand"] = 0.7;
  b0.series["util.hdd.link"] = 0.4;  // only domain b has a primary here
  b.timeseries.samples = {b0};

  const workload::RunResult m = engine::merge_results({a, b});
  const obs::TimeSeries& ts = m.timeseries;
  EXPECT_EQ(ts.interval, iv);
  EXPECT_EQ(ts.window_start, 0);
  ASSERT_EQ(ts.samples.size(), 2u);  // max over domains, not min

  // Sample 0: both domains contribute; re-anchored at 0.
  const obs::TimeSample& s0 = ts.samples[0];
  EXPECT_EQ(s0.start, 0);
  EXPECT_EQ(s0.end, iv);
  EXPECT_EQ(s0.ops, 40u);
  EXPECT_EQ(s0.bytes, 4000000u);
  EXPECT_EQ(s0.hits, 6u);
  EXPECT_EQ(s0.misses, 34u);
  EXPECT_DOUBLE_EQ(s0.hit_ratio, 6.0 / 40.0);
  EXPECT_DOUBLE_EQ(s0.throughput_mbps, 4.0 / 0.1);  // 4 MB over 100 ms
  // SSD-blocks numerator reconstructed per domain: 2*10 + 4*30 over 40.
  EXPECT_DOUBLE_EQ(s0.io_amplification, 140.0 / 40.0);
  // Extensive series sum; util averages over the two reporters.
  EXPECT_DOUBLE_EQ(s0.series.at("gc.erases"), 4.0);
  EXPECT_DOUBLE_EQ(s0.series.at("util.ssd.0.nand"), 0.6);
  // A util series only one domain reports is NOT divided by the domain
  // count — the other domain has no such resource, not an idle one.
  EXPECT_DOUBLE_EQ(s0.series.at("util.hdd.link"), 0.4);

  // Sample 1: only domain a reaches index 1; its values pass through
  // unscaled and the util series is untouched (single reporter).
  const obs::TimeSample& s1 = ts.samples[1];
  EXPECT_EQ(s1.start, iv);
  EXPECT_EQ(s1.end, 2 * iv);
  EXPECT_EQ(s1.ops, 20u);
  EXPECT_EQ(s1.bytes, 2000000u);
  EXPECT_DOUBLE_EQ(s1.hit_ratio, 1.0);
  EXPECT_DOUBLE_EQ(s1.io_amplification, 1.5);
  EXPECT_DOUBLE_EQ(s1.series.at("util.ssd.0.nand"), 1.0);
  EXPECT_EQ(s1.series.count("gc.erases"), 0u);
  EXPECT_EQ(s1.series.count("util.hdd.link"), 0u);
}

// A domain whose run produced no samples at all (sampler disabled or the
// window closed before the first boundary) must not shrink or poison the
// merged series.
TEST(MergeResults, TimeseriesIgnoresDomainsWithoutSamples) {
  const sim::SimTime iv = 100 * sim::kMs;
  workload::RunResult empty;
  empty.seconds = 0.1;
  empty.timeseries.interval = iv;  // enabled, but closed zero intervals
  workload::RunResult full = empty;
  obs::TimeSample s;
  s.start = 7 * iv;
  s.end = 8 * iv;
  s.ops = 5;
  s.bytes = 500000;
  s.app_blocks = 5;
  s.hits = 5;
  s.io_amplification = 3.0;
  s.series["util.ssd.0.nand"] = 0.25;
  full.timeseries.window_start = 7 * iv;
  full.timeseries.samples = {s};

  const workload::RunResult m = engine::merge_results({empty, full});
  ASSERT_EQ(m.timeseries.samples.size(), 1u);
  const obs::TimeSample& s0 = m.timeseries.samples[0];
  EXPECT_EQ(s0.start, 0);  // anchored by the only contributor
  EXPECT_EQ(s0.end, iv);
  EXPECT_EQ(s0.ops, 5u);
  EXPECT_DOUBLE_EQ(s0.io_amplification, 3.0);
  EXPECT_DOUBLE_EQ(s0.series.at("util.ssd.0.nand"), 0.25);
}

}  // namespace
}  // namespace srcache
