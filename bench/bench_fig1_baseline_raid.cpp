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
  common::Table t(
      {"Scheme", "RAID-0", "RAID-1", "RAID-4", "RAID-5", "(MB/s)"});

  for (const char* scheme : {"Bcache", "Flashcache"}) {
    std::vector<std::string> row = {scheme};
    for (auto level : {raid::RaidLevel::kRaid0, raid::RaidLevel::kRaid1,
                       raid::RaidLevel::kRaid4, raid::RaidLevel::kRaid5}) {
      const auto make_rig = [&] {
        return make_baseline_rig(
            scheme[0] == 'B' ? Baseline::kBcache : Baseline::kFlashcache,
            flash::spec_840pro_128(), k, level);
      };
      const std::string name =
          std::string(scheme) + "/" + raid::to_string(level);
      const u64 span = 2 * baseline_cache_blocks(Geometry::at(k), level);
      const auto res = run_fio_write("bench_fig1_baseline_raid", name,
                                     /*seed=*/11, span, make_rig);
      row.push_back(common::Table::num(res.throughput_mbps, 1));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf(
      "\npaper shape: RAID-0 ~190-230, RAID-1 ~100-120, RAID-4/5 Flashcache"
      " degraded by parity updates, Bcache less so but flush-bound.\n");
  return 0;
}
