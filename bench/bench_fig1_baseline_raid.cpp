// Figure 1: Bcache and Flashcache (write-back) over RAID-0/1/4/5 of four
// SSDs, FIO 4 KiB uniform-random writes.
//
// Paper shape: RAID-0 best; RAID-1 roughly half; parity levels hurt
// Flashcache badly (read-modify-write) while Bcache's log-structured
// writes cope better but suffer from its flushes.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Figure 1: baselines over RAID levels (FIO 4K UR write)",
               "Fig. 1");
  const double k = scale();
  const char* schemes[] = {"Bcache", "Flashcache"};
  std::vector<Cell> cells;
  for (const char* scheme : schemes) {
    const Baseline kind =
        scheme == schemes[0] ? Baseline::kBcache : Baseline::kFlashcache;
    for (auto level : {raid::RaidLevel::kRaid0, raid::RaidLevel::kRaid1,
                       raid::RaidLevel::kRaid4, raid::RaidLevel::kRaid5}) {
      cells.push_back(fio_cell(
          std::string(scheme) + "/" + raid::to_string(level), /*seed=*/11,
          2 * baseline_cache_blocks(Geometry::at(k), level), [=] {
            return make_baseline_rig(kind, flash::spec_840pro_128(), k, level);
          }));
    }
  }
  const auto res = run_sweep("bench_fig1_baseline_raid", cells);

  common::Table t(
      {"Scheme", "RAID-0", "RAID-1", "RAID-4", "RAID-5", "(MB/s)"});
  for (size_t s = 0; s < 2; ++s) {
    std::vector<std::string> row = {schemes[s]};
    for (size_t l = 0; l < 4; ++l)
      row.push_back(common::Table::num(res[s * 4 + l].throughput_mbps, 1));
    t.add_row(std::move(row));
  }
  t.print();
  std::printf(
      "\npaper shape: RAID-0 ~190-230, RAID-1 ~100-120, RAID-4/5 Flashcache"
      " degraded by parity updates, Bcache less so but flush-bound.\n");
  return 0;
}
