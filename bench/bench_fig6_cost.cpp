// Figure 6: cost-effectiveness of SRC with different SSD products —
// RAID-5 arrays of MLC/TLC SATA drives from two vendors vs a single
// high-end NVMe drive (no parity).
//
// Paper result: the NVMe drive wins raw performance slightly; TLC arrays
// win MB/s per dollar; MLC arrays win lifetime and lifetime per dollar.
//
// Every config point is one cell of a single sweep (run_sweep). NAND write
// amplification is derived from the merged metrics-registry delta
// ("ssd.<i>.host_pages_written" / "ssd.<i>.pages_programmed" summed across
// devices and domains) — the per-domain FTLs are not reachable after the
// engine tears the rigs down, and the window delta is the honest input to a
// lifetime model anyway.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

namespace {

struct ConfigPoint {
  flash::SsdSpec spec;
  int count;
  raid::RaidLevel raid;
};

// Sums the per-device FTL page counters out of a merged metrics delta and
// folds in the cache-layer amplification, mirroring the old direct-FTL
// computation: (NAND pages / host pages) x (cache-layer writes / app writes).
double nand_wa_from(const workload::RunResult& res) {
  u64 host = 0, nand = 0;
  for (const auto& [name, v] : res.metrics.counters) {
    if (name.size() > 4 && name.compare(0, 4, "ssd.") == 0) {
      if (name.find(".host_pages_written") != std::string::npos) host += v;
      if (name.find(".pages_programmed") != std::string::npos) nand += v;
    }
  }
  double wa =
      host ? static_cast<double>(nand) / static_cast<double>(host) : 1.0;
  wa *= res.cache.app_blocks()
            ? static_cast<double>(res.ssd.write_blocks) /
                  static_cast<double>(res.cache.app_blocks())
            : 1.0;
  return wa;
}

}  // namespace

int main() {
  print_header("Figure 6: performance/lifetime per dollar", "Fig. 6(a)-(d)");
  const double k = scale();

  const std::vector<ConfigPoint> points = {
      {flash::spec_a_mlc_sata(), 4, raid::RaidLevel::kRaid5},
      {flash::spec_a_tlc_sata(), 4, raid::RaidLevel::kRaid5},
      {flash::spec_b_mlc_sata(), 4, raid::RaidLevel::kRaid5},
      {flash::spec_b_tlc_sata(), 4, raid::RaidLevel::kRaid5},
      {flash::spec_c_mlc_nvme(), 1, raid::RaidLevel::kRaid0},
  };

  std::vector<Cell> cells;
  for (auto group : kTraceGroups) {
    for (const auto& p : points) {
      src::SrcConfig cfg = default_src_config();
      cfg.raid = p.raid;
      flash::SsdSpec spec = p.spec;
      if (p.count == 1) {
        // Single NVMe drive: a 2-device RAID-0 SRC is the closest layout;
        // the paper runs SRC without parity on one device. We model one
        // large device as two half-capacity "channels" of the same spec.
        spec.capacity_bytes /= 2;
        spec.units /= 2;
        spec.price_usd /= 2;
        cfg.num_ssds = 2;
        cfg.raid = raid::RaidLevel::kRaid0;
      }
      cells.push_back(src_cell(
          std::string(workload::to_string(group)) + "/" + p.spec.name, cfg,
          spec, group, k));
    }
  }
  const auto runs = run_sweep("fig6", cells);

  common::Table t({"Workload", "Config", "MB/s", "(MB/s)/$", "Lifetime(d)",
                   "Lifetime(d)/$x100", "eff GB/$"});
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto group = kTraceGroups[i / points.size()];
    const ConfigPoint& p = points[i % points.size()];
    const workload::RunResult& res = runs[i];
    const double nand_wa = nand_wa_from(res);
    cost::ArrayConfig array{p.spec, p.count};
    // The paper assumes 512 GB of workload writes per day.
    const auto report =
        cost::evaluate(array, res.throughput_mbps, 512e9,
                       std::max(0.25, nand_wa));
    // Effective cache capacity per dollar: with REPRO_TIER_MB set, the
    // compressed DRAM tier stretches its budget by the measured
    // compression ratio and its price is added to the array's.
    const double eff_gb =
        res.tier.active
            ? cost::effective_gb_per_dollar(
                  array, static_cast<double>(res.tier.budget_bytes),
                  res.tier.compression_ratio())
            : array.gb_per_dollar();
    t.add_row({workload::to_string(group), p.spec.name,
               common::Table::num(report.throughput_mbps, 0),
               common::Table::num(report.mbps_per_dollar, 2),
               common::Table::num(report.lifetime_days, 0),
               common::Table::num(report.lifetime_days_per_dollar * 100, 1),
               common::Table::num(eff_gb, 2)});
  }
  t.print();
  std::printf(
      "\npaper shape: NVMe best raw MB/s; TLC best (MB/s)/$; MLC best "
      "lifetime and lifetime/$; RAID-5 arrays beat the single NVMe on "
      "lifetime per dollar.\n");
  return 0;
}
