// Table 10: SRC RAID protection levels (0, 4, 5).
//
// Paper result: RAID-0 best (no redundancy, ~650 MB/s Write), RAID-5
// slightly above RAID-4 (parity distribution smooths load), RAID-5 about
// 20% below RAID-0.
//
// Runs on the sharded engine (run_group_sharded), so REPRO_SHARDS/
// REPRO_THREADS parallelize each cell and REPRO_FAULT_PLAN can script a
// fail/replace/rebuild scenario against any protection level — this is the
// bench the rebuild CI matrix drives.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Table 10: RAID level performance (SRC)", "Table 10");
  const double k = scale();

  common::Table t({"Workload", "RAID-0", "RAID-4", "RAID-5",
                   "(MB/s, amp in parens)"});
  for (auto group : {workload::TraceGroup::kWrite, workload::TraceGroup::kMixed,
                     workload::TraceGroup::kRead}) {
    std::vector<std::string> row = {workload::to_string(group)};
    for (auto raid : {raid::RaidLevel::kRaid0, raid::RaidLevel::kRaid4,
                      raid::RaidLevel::kRaid5}) {
      src::SrcConfig cfg = default_src_config();
      cfg.raid = raid;
      const std::string name = std::string(workload::to_string(group)) + "/" +
                               raid::to_string(raid);
      const auto res = run_group_sharded(cfg, flash::spec_840pro_128(), group,
                                         k, "table10_raid", /*seed=*/42,
                                         name.c_str());
      row.push_back(common::Table::num(res.throughput_mbps, 0) + " (" +
                    common::Table::num(res.io_amplification, 2) + ")");
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("\npaper: Write 650/482/508, Mixed 686/521/547, Read 791/699/726"
              " MB/s (RAID-0/-4/-5).\n");
  return 0;
}
