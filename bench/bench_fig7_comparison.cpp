// Figure 7: SRC vs SRC-S2D vs Bcache5 vs Flashcache5 on the three trace
// groups — throughput (a), I/O amplification (b), hit ratio (c).
//
// Paper result: SRC outperforms Bcache5 by 2.8-3.1x and Flashcache5 by
// 2.3-2.8x; Sel-GC beats S2D with higher I/O amplification but a higher
// hit ratio.
//
// All twelve (group x scheme) cells run in one sweep (run_sweep): the same
// fixed kEngineDomains partition and per-domain seed stream for every
// scheme, so REPRO_THREADS changes wall-clock only and every
// run lands in REPRO_JSON as "<group>/<scheme>".
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Figure 7: SRC vs existing solutions (RAID-5)",
               "Fig. 7(a) throughput, 7(b) I/O amplification, 7(c) hit ratio");
  const double k = scale();
  const flash::SsdSpec spec = flash::spec_840pro_128();
  const char* schemes[] = {"SRC", "SRC-S2D", "Bcache5", "Flashcache5"};
  src::SrcConfig s2d = default_src_config();
  s2d.gc = src::GcPolicy::kS2D;

  std::vector<Cell> cells;
  for (auto group : kTraceGroups) {
    const auto name = [group](const char* scheme) {
      return std::string(workload::to_string(group)) + "/" + scheme;
    };
    cells.push_back(src_cell(name(schemes[0]), default_src_config(), spec,
                             group, k));  // defaults: Sel-GC
    cells.push_back(src_cell(name(schemes[1]), s2d, spec, group, k));
    cells.push_back(
        baseline_cell(name(schemes[2]), Baseline::kBcache, spec, group, k));
    cells.push_back(
        baseline_cell(name(schemes[3]), Baseline::kFlashcache, spec, group, k));
  }
  const auto res = run_sweep("fig7", cells);

  common::Table table({"Workload", "Scheme", "MB/s", "I/O amp", "Hit ratio"});
  for (size_t i = 0; i < res.size(); ++i) {
    table.add_row({workload::to_string(kTraceGroups[i / 4]), schemes[i % 4],
                   common::Table::num(res[i].throughput_mbps, 1),
                   common::Table::num(res[i].io_amplification, 2),
                   common::Table::num(res[i].hit_ratio, 2)});
  }
  table.print();

  // Paper's headline ratios for quick comparison.
  std::printf("\npaper: SRC/Bcache5 = 2.83/2.92/3.09x (W/M/R), "
              "SRC/Flashcache5 = 2.50/2.75/2.34x\n");
  auto at = [&](size_t g, size_t s) { return res[g * 4 + s].throughput_mbps; };
  for (size_t g = 0; g < 3; ++g) {
    std::printf("measured %s: SRC/Bcache5 = %.2fx, SRC/Flashcache5 = %.2fx, "
                "SRC/SRC-S2D = %.2fx\n",
                workload::to_string(kTraceGroups[g]), at(g, 0) / at(g, 2),
                at(g, 0) / at(g, 3), at(g, 0) / at(g, 1));
  }
  return 0;
}
