// bench::run_sweep: every cell of a sweep must come out exactly as if it
// ran alone as its own engine job — same ReproReport JSON, engine block and
// epoch count included — at any thread count, whatever its neighbours'
// domain counts, op budgets or background rebuilds.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hpp"
#include "src_test_util.hpp"
#include "workload/generators.hpp"

namespace srcache::bench {
namespace {

constexpr sim::SimTime kDuration = 200 * sim::kMs;

// One domain over the small SRC test rig with two FIO streams seeded from
// the domain seed; optionally an op budget, and a fault plan that fails and
// replaces an SSD under a slow background rebuild.
struct TinyDomain {
  src::testutil::Rig rig;
  std::vector<std::unique_ptr<workload::FioGen>> gens;
  std::unique_ptr<fault::FaultInjector> fault;
  std::unique_ptr<raid::RebuildManager> rebuild;
};

Cell tiny_cell(std::string name, u32 domains, u64 max_ops = 0,
               bool rebuild = false) {
  Cell c{std::move(name), domains, false, {}};
  c.build = [max_ops, rebuild](u32, u64 dseed, bool) {
    auto h = std::make_shared<TinyDomain>();
    engine::DomainSetup s;
    s.cache = h->rig.cache.get();
    s.ssds = h->rig.ssd_ptrs();
    for (u32 g = 0; g < 2; ++g) {
      workload::FioGen::Config fc;
      fc.span_blocks = 2 * h->rig.cfg.region_bytes_per_ssd / kBlockSize;
      fc.req_blocks = 8;
      fc.read_pct = g == 0 ? 0 : 70;
      fc.seed = dseed + g;
      h->gens.push_back(std::make_unique<workload::FioGen>(fc));
      s.gens.push_back(h->gens.back().get());
    }
    s.cfg.threads_per_gen = 2;
    s.cfg.iodepth = 2;
    s.cfg.duration = kDuration;
    s.cfg.warmup_bytes = 256 * KiB;
    s.cfg.max_ops = max_ops;
    if (rebuild) {
      h->fault = std::make_unique<fault::FaultInjector>(
          fault::FaultPlan::parse_or_die(
              "at=ops:100 fail dev=ssd1; at=ops:200 replace dev=ssd1", dseed));
      h->fault->attach_ssds(s.ssds);
      h->fault->attach_primary(h->rig.primary.get());
      raid::RebuildConfig rbc;
      rbc.mbps = 4;  // still copying when the op budget ends the cell
      h->rebuild = std::make_unique<raid::RebuildManager>(rbc, s.ssds);
      src::wire_faults(*h->rig.cache, *h->fault, h->rebuild.get());
      s.cfg.fault = h->fault.get();
      s.cfg.rebuild = h->rebuild.get();
    }
    s.owned = h;
    return s;
  };
  return c;
}

// A cell run alone: its own engine job, its rebuilds pumped at every
// barrier, reported as the engine merged it.
std::string solo_json(const Cell& c) {
  engine::ParallelEngine eng({});
  eng.add_epoch_hook([](const engine::EpochView& v) {
    for (const auto& dom : *v.domains)
      if (raid::RebuildManager* mgr = dom->config().rebuild)
        mgr->pump(dom->window_start() + v.rel_end);
  });
  const engine::EngineResult er = eng.run(c.domains, [&](u32 i, u32) {
    return c.build(i, domain_seed(42, i), false);
  });
  return workload::run_json("sweep_test", c.name, er.merged);
}

std::vector<std::string> sweep_json(const std::vector<Cell>& cells,
                                    u32 threads) {
  const Sweep sw = run_sweep(threads, cells);
  std::vector<std::string> out;
  for (size_t c = 0; c < cells.size(); ++c)
    out.push_back(workload::run_json("sweep_test", cells[c].name, sw.runs[c]));
  return out;
}

TEST(Sweep, EachCellMatchesItsSoloRun) {
  const std::vector<Cell> cells = {
      tiny_cell("wide", 3),
      tiny_cell("rebuild", 2, /*max_ops=*/300, /*rebuild=*/true),
      tiny_cell("narrow", 1),
      tiny_cell("early", 1, /*max_ops=*/150),
  };
  std::vector<std::string> solo;
  for (const Cell& c : cells) solo.push_back(solo_json(c));

  for (u32 threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    const std::vector<std::string> swept = sweep_json(cells, threads);
    for (size_t c = 0; c < cells.size(); ++c)
      EXPECT_EQ(solo[c], swept[c]) << cells[c].name;
  }

  // The cases the comparison must cover really occur: the budgeted cells
  // stop barriers before their neighbours, and the rebuild is still copying
  // when its cell stops.
  const Sweep sw = run_sweep(1, cells);
  EXPECT_EQ(sw.runs[0].engine.domains, 3u);
  EXPECT_EQ(sw.runs[0].engine.epochs, 8u);
  EXPECT_LT(sw.runs[1].engine.epochs, sw.runs[0].engine.epochs);
  EXPECT_LT(sw.runs[3].engine.epochs, sw.runs[0].engine.epochs);
  EXPECT_EQ(sw.runs[3].ops, 150u);
  EXPECT_EQ(sw.runs[1].rebuild.rebuilds_started, 2u);
  EXPECT_EQ(sw.runs[1].rebuild.rebuilds_completed, 0u);
}

}  // namespace
}  // namespace srcache::bench
