// Compressed DRAM tier A/B: each trace group replayed tier-off and tier-on
// over the same seeds and the same SRC stack, so the delta is the tier's
// doing alone.
//
// Expected shape: the tier absorbs write bursts in DRAM and serves hot reads
// before they touch flash, so tier-on must strictly reduce cache-SSD write
// bytes at an equal-or-better end-to-end hit ratio (the tier-smoke CI job
// asserts exactly this on the Read group via tools/repro_report
// --assert-tier). The price is virtual CPU time for the simulated
// compressor, reported per run, and DRAM dollars, folded into the
// effective-capacity-per-dollar column (cost/cost_model.hpp).
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Compressed DRAM tier in front of the SSD array",
               "multi-tier extension (ROADMAP); baseline: Table 6 replay");
  const double k = scale();

  // REPRO_TIER_MB picks the budget; unset, default to half of one SSD's
  // cache region per domain — large enough to matter, small enough that
  // flash still does the bulk of the caching.
  const u64 tier_mb =
      repro_tier_mb() != 0
          ? repro_tier_mb()
          : Geometry::at(k / kEngineDomains).region_bytes_per_ssd / MiB / 2 *
                kEngineDomains;
  std::printf("tier budget: %llu MiB total across %u domains\n\n",
              static_cast<unsigned long long>(tier_mb), kEngineDomains);

  std::vector<Cell> cells;
  for (auto group : kTraceGroups) {
    for (const bool tier_on : {false, true}) {
      cells.push_back(src_cell(
          std::string(workload::to_string(group)) +
              (tier_on ? "/tier-on" : "/tier-off"),
          default_src_config(), flash::spec_840pro_128(), group, k,
          tier_on ? static_cast<i64>(tier_mb) : 0));
    }
  }
  const auto runs = run_sweep("bench_tier", cells);

  const cost::ArrayConfig array{flash::spec_840pro_128(), 4};
  common::Table t({"Run", "MB/s", "hit", "flash wr MiB", "tier hit",
                   "comp ratio", "cpu ms", "eff GB/$"});
  for (size_t i = 0; i < runs.size(); ++i) {
    const bool tier_on = i % 2 == 1;
    const workload::RunResult& res = runs[i];
    const double eff =
        tier_on ? cost::effective_gb_per_dollar(
                      array, static_cast<double>(res.tier.budget_bytes),
                      res.tier.compression_ratio())
                : array.gb_per_dollar();
    t.add_row({cells[i].name, common::Table::num(res.throughput_mbps, 1),
               common::Table::num(res.hit_ratio, 3),
               common::Table::num(static_cast<double>(res.ssd.write_blocks) *
                                      kBlockSize / (1 << 20),
                                  1),
               tier_on ? common::Table::num(res.tier.hit_ratio(), 3) : "-",
               tier_on ? common::Table::num(res.tier.compression_ratio(), 3)
                       : "-",
               tier_on ? common::Table::num(
                             static_cast<double>(res.tier.cpu_compress_ns +
                                                 res.tier.cpu_decompress_ns) /
                                 1e6,
                             1)
                       : "-",
               common::Table::num(eff, 2)});
    if (tier_on) {
      const workload::RunResult& off = runs[i - 1];
      std::printf("[tier] %s: flash writes %llu -> %llu blocks, hit %.3f -> "
                  "%.3f\n",
                  workload::to_string(kTraceGroups[i / 2]),
                  static_cast<unsigned long long>(off.ssd.write_blocks),
                  static_cast<unsigned long long>(res.ssd.write_blocks),
                  off.hit_ratio, res.hit_ratio);
    }
  }
  t.print();
  std::printf(
      "\nexpected shape: tier-on strictly lowers flash write bytes at "
      "equal-or-better hit ratio; compression ratio < 1 stretches the DRAM "
      "budget and the effective GB/$ column.\n");
  return 0;
}
