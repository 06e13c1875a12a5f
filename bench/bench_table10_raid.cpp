// Table 10: SRC RAID protection levels (0, 4, 5).
//
// Paper result: RAID-0 best (no redundancy, ~650 MB/s Write), RAID-5
// slightly above RAID-4 (parity distribution smooths load), RAID-5 about
// 20% below RAID-0.
//
// The nine cells run in one sweep (run_sweep), so REPRO_SHARDS/
// REPRO_THREADS parallelize them all and REPRO_FAULT_PLAN can script a
// fail/replace/rebuild scenario against any protection level — this is the
// bench the rebuild CI matrix drives.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Table 10: RAID level performance (SRC)", "Table 10");
  const double k = scale();

  std::vector<Cell> cells;
  for (auto group : kTraceGroups) {
    for (auto raid : {raid::RaidLevel::kRaid0, raid::RaidLevel::kRaid4,
                      raid::RaidLevel::kRaid5}) {
      src::SrcConfig cfg = default_src_config();
      cfg.raid = raid;
      cells.push_back(src_cell(std::string(workload::to_string(group)) + "/" +
                                   raid::to_string(raid),
                               cfg, flash::spec_840pro_128(), group, k));
    }
  }
  const auto res = run_sweep("table10_raid", cells);

  common::Table t({"Workload", "RAID-0", "RAID-4", "RAID-5",
                   "(MB/s, amp in parens)"});
  add_group_rows(t, res);
  t.print();
  std::printf("\npaper: Write 650/482/508, Mixed 686/521/547, Read 791/699/726"
              " MB/s (RAID-0/-4/-5).\n");
  return 0;
}
