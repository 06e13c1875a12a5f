// Figure 4: impact of SRC's erase-group (segment-group) size on throughput
// and I/O amplification, for the Write/Mixed/Read trace groups.
//
// Paper result: throughput improves as the SG size grows toward the
// device's erase group (256 MB), while cache-level I/O amplification is
// lowest at small sizes (small SGs are more often fully dead).
//
// Every point is one cell of a single sweep (run_sweep). The swept
// segment-group size is geometry-coupled, so it goes in through
// make_src_rig's cfg_tweak hook — applied after the per-domain geometry is
// derived, keeping the cache region fixed while the SG size varies. Sizes
// are computed against the *domain* geometry (scale k/kEngineDomains),
// since that is the region each stack actually manages.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Figure 4: impact of erase group size on SRC", "Fig. 4");
  const double k = scale();
  const double dk = k / kEngineDomains;
  const Geometry geo = Geometry::at(dk);
  const u64 device_eg =
      sized_spec(flash::spec_840pro_128(), geo.ssd_capacity_bytes, dk)
          .erase_group_bytes();
  std::printf(
      "device erase group: %llu MiB (region fixed at %llu MiB/SSD, per "
      "domain)\n\n",
      static_cast<unsigned long long>(device_eg / MiB),
      static_cast<unsigned long long>(geo.region_bytes_per_ssd / MiB));

  std::vector<u64> sizes;
  for (u64 s = 2 * MiB; s <= 2 * device_eg && geo.region_bytes_per_ssd % s == 0;
       s *= 2) {
    sizes.push_back(s);
  }

  src::SrcConfig cfg = default_src_config();
  cfg.umax = 0.90;
  std::vector<Cell> cells;
  for (auto group : kTraceGroups) {
    for (u64 s : sizes) {
      cells.push_back(src_cell(
          std::string(workload::to_string(group)) + "/sg-" +
              std::to_string(s / MiB) + "MiB",
          cfg, flash::spec_840pro_128(), group, k, -1,
          [s](src::SrcConfig& c, const Geometry&) {
            c.erase_group_bytes = s;  // sweep the SG size, region fixed
          }));
    }
  }
  const auto res = run_sweep("bench_fig4_src_erase_group", cells);

  common::Table t({"Workload", "SG size (MiB/SSD)", "MB/s", "I/O amp"});
  for (size_t i = 0; i < res.size(); ++i) {
    t.add_row({workload::to_string(kTraceGroups[i / sizes.size()]),
               std::to_string(sizes[i % sizes.size()] / MiB),
               common::Table::num(res[i].throughput_mbps, 1),
               common::Table::num(res[i].io_amplification, 2)});
  }
  t.print();
  std::printf("\npaper shape: throughput rises with SG size and saturates at"
              " the device erase group; amplification lowest at 2 MiB.\n");
  return 0;
}
