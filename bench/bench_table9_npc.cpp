// Table 9: Parity-for-Clean vs No-Parity-for-Clean.
//
// Paper result: NPC beats PC for all groups (508 vs 431 on Write: +18%),
// because clean segments without parity carry one extra data chunk.
//
// The six points are the cells of one sweep (run_sweep), so REPRO_SHARDS/
// REPRO_THREADS parallelize them all and every run lands in REPRO_JSON
// with the full observability surface.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Table 9: PC vs NPC mode", "Table 9");
  const double k = scale();

  std::vector<Cell> cells;
  for (auto group : kTraceGroups) {
    for (auto mode : {src::CleanRedundancy::kPC, src::CleanRedundancy::kNPC}) {
      src::SrcConfig cfg = default_src_config();
      cfg.clean_redundancy = mode;
      const std::string name =
          std::string(workload::to_string(group)) +
          (mode == src::CleanRedundancy::kPC ? "/pc" : "/npc");
      cells.push_back(src_cell(name, cfg, flash::spec_840pro_128(), group, k));
    }
  }
  const auto res = run_sweep("bench_table9_npc", cells);

  common::Table t({"Workload", "PC (MB/s)", "PC amp", "NPC (MB/s)", "NPC amp",
                   "paper PC", "paper NPC"});
  const char* paper_pc[] = {"431.13", "520.95", "669.67"};
  const char* paper_npc[] = {"507.89", "547.36", "725.95"};
  for (size_t g = 0; g < 3; ++g) {
    const workload::RunResult& pc = res[2 * g];
    const workload::RunResult& npc = res[2 * g + 1];
    t.add_row({workload::to_string(kTraceGroups[g]),
               common::Table::num(pc.throughput_mbps, 1),
               common::Table::num(pc.io_amplification, 2),
               common::Table::num(npc.throughput_mbps, 1),
               common::Table::num(npc.io_amplification, 2), paper_pc[g],
               paper_npc[g]});
  }
  t.print();
  return 0;
}
