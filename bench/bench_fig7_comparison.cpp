// Figure 7: SRC vs SRC-S2D vs Bcache5 vs Flashcache5 on the three trace
// groups — throughput (a), I/O amplification (b), hit ratio (c).
//
// Paper result: SRC outperforms Bcache5 by 2.8-3.1x and Flashcache5 by
// 2.3-2.8x; Sel-GC beats S2D with higher I/O amplification but a higher
// hit ratio.
//
// All four schemes run through the sharded engine (run_group_sharded /
// run_baseline_group_sharded): the same fixed kEngineDomains partition and
// per-domain seed stream for every scheme, so REPRO_SHARDS/REPRO_THREADS
// change wall-clock only and every run lands in REPRO_JSON as
// "<group>/<scheme>".
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Figure 7: SRC vs existing solutions (RAID-5)",
               "Fig. 7(a) throughput, 7(b) I/O amplification, 7(c) hit ratio");
  const double k = scale();
  const flash::SsdSpec spec = flash::spec_840pro_128();

  common::Table table({"Workload", "Scheme", "MB/s", "I/O amp", "Hit ratio"});
  struct Row {
    workload::TraceGroup group;
    const char* scheme;
    double mbps, amp, hit;
  };
  std::vector<Row> rows;
  const auto name_for = [](workload::TraceGroup g, const char* scheme) {
    return std::string(workload::to_string(g)) + "/" + scheme;
  };

  for (auto group : {workload::TraceGroup::kWrite, workload::TraceGroup::kMixed,
                     workload::TraceGroup::kRead}) {
    // SRC (defaults: Sel-GC).
    {
      auto res = run_group_sharded(default_src_config(), spec, group, k,
                                   "fig7", 42, name_for(group, "SRC").c_str());
      rows.push_back({group, "SRC", res.throughput_mbps, res.io_amplification,
                      res.hit_ratio});
    }
    // SRC-S2D.
    {
      src::SrcConfig cfg = default_src_config();
      cfg.gc = src::GcPolicy::kS2D;
      auto res = run_group_sharded(cfg, spec, group, k, "fig7", 42,
                                   name_for(group, "SRC-S2D").c_str());
      rows.push_back({group, "SRC-S2D", res.throughput_mbps,
                      res.io_amplification, res.hit_ratio});
    }
    // Bcache5.
    {
      auto res = run_baseline_group_sharded(
          "fig7", name_for(group, "Bcache5"),
          [&spec](double dk) {
            return make_baseline_rig(Baseline::kBcache, spec, dk);
          },
          group, k);
      rows.push_back({group, "Bcache5", res.throughput_mbps,
                      res.io_amplification, res.hit_ratio});
    }
    // Flashcache5.
    {
      auto res = run_baseline_group_sharded(
          "fig7", name_for(group, "Flashcache5"),
          [&spec](double dk) {
            return make_baseline_rig(Baseline::kFlashcache, spec, dk);
          },
          group, k);
      rows.push_back({group, "Flashcache5", res.throughput_mbps,
                      res.io_amplification, res.hit_ratio});
    }
  }

  for (const Row& r : rows) {
    table.add_row({workload::to_string(r.group), r.scheme,
                   common::Table::num(r.mbps, 1), common::Table::num(r.amp, 2),
                   common::Table::num(r.hit, 2)});
  }
  table.print();

  // Paper's headline ratios for quick comparison.
  std::printf("\npaper: SRC/Bcache5 = 2.83/2.92/3.09x (W/M/R), "
              "SRC/Flashcache5 = 2.50/2.75/2.34x\n");
  auto at = [&](size_t g, size_t s) { return rows[g * 4 + s].mbps; };
  for (size_t g = 0; g < 3; ++g) {
    std::printf("measured %s: SRC/Bcache5 = %.2fx, SRC/Flashcache5 = %.2fx, "
                "SRC/SRC-S2D = %.2fx\n",
                workload::to_string(rows[g * 4].group), at(g, 0) / at(g, 2),
                at(g, 0) / at(g, 3), at(g, 0) / at(g, 1));
  }
  return 0;
}
