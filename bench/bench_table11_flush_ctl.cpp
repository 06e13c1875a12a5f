// Table 11: influence of the flush issue point — per segment write vs per
// segment-group write.
//
// Paper result: per-segment flushing costs ~10% on Write workloads and
// more than 40% on Read workloads (flush barriers stall reads too).
//
// The six points are the cells of one sweep (run_sweep), so REPRO_SHARDS/
// REPRO_THREADS parallelize them all and every run lands in REPRO_JSON
// with the full observability surface.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Table 11: flush command control", "Table 11");
  const double k = scale();

  std::vector<Cell> cells;
  for (auto group : kTraceGroups) {
    for (auto fc : {src::FlushControl::kPerSegment,
                    src::FlushControl::kPerSegmentGroup}) {
      src::SrcConfig cfg = default_src_config();
      cfg.flush_control = fc;
      const std::string name =
          std::string(workload::to_string(group)) +
          (fc == src::FlushControl::kPerSegment ? "/per-seg" : "/per-sg");
      cells.push_back(src_cell(name, cfg, flash::spec_840pro_128(), group, k));
    }
  }
  const auto res = run_sweep("bench_table11_flush_ctl", cells);

  common::Table t({"Workload", "Per segment", "Per SG",
                   "(MB/s, amp in parens)", "paper per-seg", "paper per-SG"});
  add_group_rows(t, res,
                 {{"", "462.53", "507.89"},
                  {"", "480.74", "547.36"},
                  {"", "418.03", "725.95"}});
  t.print();
  return 0;
}
