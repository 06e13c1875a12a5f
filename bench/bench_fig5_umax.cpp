// Figure 5: impact of the UMAX threshold on Sel-GC.
//
// Paper result: throughput peaks around UMAX = 90% and drops at 95%
// (keeping hot data pays until the cache is too full to copy); I/O
// amplification rises monotonically with UMAX.
//
// The fifteen points are the cells of one sweep (run_sweep), so
// REPRO_SHARDS/REPRO_THREADS parallelize them all and every run lands in
// REPRO_JSON with the full observability surface.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Figure 5: impact of UMAX on Sel-GC", "Fig. 5");
  const double k = scale();

  const double umaxes[] = {0.30, 0.50, 0.70, 0.90, 0.95};
  std::vector<Cell> cells;
  for (auto group : kTraceGroups) {
    for (double umax : umaxes) {
      src::SrcConfig cfg = default_src_config();
      cfg.gc = src::GcPolicy::kSelGc;
      cfg.umax = umax;
      cells.push_back(src_cell(std::string(workload::to_string(group)) +
                                   "/umax-" +
                                   std::to_string(static_cast<int>(umax * 100)),
                               cfg, flash::spec_840pro_128(), group, k));
    }
  }
  const auto res = run_sweep("bench_fig5_umax", cells);

  common::Table t({"Workload", "UMAX", "MB/s", "I/O amp"});
  for (size_t i = 0; i < res.size(); ++i) {
    const double umax = umaxes[i % std::size(umaxes)];
    t.add_row({workload::to_string(kTraceGroups[i / std::size(umaxes)]),
               std::to_string(static_cast<int>(umax * 100)) + "%",
               common::Table::num(res[i].throughput_mbps, 1),
               common::Table::num(res[i].io_amplification, 2)});
  }
  t.print();
  std::printf("\npaper shape: throughput peaks at UMAX=90%% then drops at "
              "95%%; amplification increases with UMAX.\n");
  return 0;
}
