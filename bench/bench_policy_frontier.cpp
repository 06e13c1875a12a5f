// Policy bake-off: hit ratio vs NAND write amplification across the Table 6
// trace groups, for every interesting (eviction, admission) combination.
//
// The paper's SRC design fixes one replacement/admission scheme; its claim
// of cost-effective flash caching is really one point on a hit-ratio vs
// flash-write frontier (ECI-Cache's argument — policy should answer to
// endurance, not hit ratio alone). This bench maps that frontier: each run
// is one (trace group, eviction+admission) cell of one sweep, and
// NAND WA = NAND pages programmed (host + device GC, summed over the
// array) per application block — the endurance cost of one unit of served
// traffic. tools/repro_report --frontier turns the REPRO_JSON document
// into the Pareto view and gates CI against FRONTIER_baseline.json.
//
// Run names are "<Group>/<eviction>+<admission>" (e.g. "Read/s3fifo+ghost");
// the eviction/admission fields are set explicitly per run, so REPRO_POLICY/
// REPRO_ADMIT do not change this bench (they select policies for the
// single-policy benches).
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

namespace {

// NAND write amplification for one run: pages programmed by the SSD array
// (host writes + device-internal GC copies) per application block in the
// measurement window. Mirrors tools/repro_report's --frontier computation.
double nand_wa(const workload::RunResult& r) {
  u64 programmed = 0;
  for (const auto& [key, value] : r.metrics.counters) {
    if (key.starts_with("ssd.") && key.ends_with(".pages_programmed"))
      programmed += value;
  }
  const u64 app = r.cache.app_blocks();
  return app == 0 ? 0.0
                  : static_cast<double>(programmed) / static_cast<double>(app);
}

}  // namespace

int main() {
  print_header(
      "Policy frontier: hit ratio vs NAND write amplification",
      "extension (ROADMAP bake-off; Table 6 trace groups, ECI-Cache metric)");
  const double k = scale();

  struct Combo {
    policy::EvictionKind ev;
    policy::AdmissionKind ad;
  };
  // paper+always is the paper's exact behaviour (the frontier anchor);
  // sieve+ghost adds nothing over sieve+always at smoke scale, so the grid
  // stays at the five combinations the CI gate tracks.
  const Combo combos[] = {
      {policy::EvictionKind::kPaper, policy::AdmissionKind::kAlways},
      {policy::EvictionKind::kPaper, policy::AdmissionKind::kGhost},
      {policy::EvictionKind::kS3Fifo, policy::AdmissionKind::kAlways},
      {policy::EvictionKind::kS3Fifo, policy::AdmissionKind::kGhost},
      {policy::EvictionKind::kSieve, policy::AdmissionKind::kAlways},
  };

  std::vector<Cell> cells;
  for (auto group : kTraceGroups) {
    for (const Combo& c : combos) {
      src::SrcConfig cfg = default_src_config();
      cfg.eviction = c.ev;
      cfg.admission = c.ad;
      cells.push_back(src_cell(std::string(workload::to_string(group)) + "/" +
                                   policy::to_string(c.ev) + "+" +
                                   policy::to_string(c.ad),
                               cfg, flash::spec_840pro_128(), group, k));
    }
  }
  const auto runs = run_sweep("bench_policy_frontier", cells);

  common::Table t({"Set", "Policy", "MB/s", "Hit%", "NAND WA", "I/O amp"});
  for (size_t i = 0; i < runs.size(); ++i) {
    const workload::RunResult& res = runs[i];
    const std::string& name = cells[i].name;  // "<group>/<policy>"
    t.add_row({name.substr(0, name.find('/')), name.substr(name.find('/') + 1),
               common::Table::num(res.throughput_mbps, 0),
               common::Table::num(res.hit_ratio * 100.0, 1),
               common::Table::num(nand_wa(res), 3),
               common::Table::num(res.io_amplification, 2)});
  }
  t.print();
  std::printf(
      "\nNAND WA = SSD pages programmed (host + device GC) per application "
      "block.\nLower WA at equal-or-better hit ratio strictly improves "
      "endurance per served I/O;\nrepro_report --frontier prints the "
      "Pareto view and CI gates it against\nFRONTIER_baseline.json.\n");
  return 0;
}
