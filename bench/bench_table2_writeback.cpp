// Table 2: FIO 4 KiB uniform-random write bandwidth, write-through vs
// write-back, for Bcache and Flashcache over a single SSD.
//
// Paper result: WB beats WT by 4.3x (Bcache) and 17.5x (Flashcache);
// Bcache WB (65.9 MB/s) trails Flashcache WB (100.3 MB/s) because of its
// journal flushes.
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Table 2: write-through vs write-back (single SSD, FIO 4K UR)",
               "Table 2");
  const double k = scale();
  const Geometry geo = Geometry::at(k);
  const flash::SsdSpec spec = sized_spec(flash::spec_840pro_128(),
                                         geo.ssd_capacity_bytes);
  // FIO span: twice the cache (uniform random over a volume larger than
  // the cache, as in the paper's setup).
  const u64 cache_blocks = geo.region_bytes_per_ssd / kBlockSize;
  const char* schemes[] = {"Bcache", "Flashcache"};

  // Cells in run order: WT for both schemes, then WB for both.
  std::vector<Cell> cells;
  for (bool write_back : {false, true}) {
    for (const char* scheme : schemes) {
      const bool bcache = scheme == schemes[0];
      // One preconditioned SSD under the cache, no RAID.
      const auto make_rig = [=] {
        auto rig = std::make_unique<BaselineRig>();
        rig->geo = geo;
        rig->ssds.push_back(std::make_unique<flash::SimSsd>(spec, false));
        rig->ssds.back()->precondition();
        rig->primary = make_primary(k);
        if (bcache) {
          baselines::BcacheConfig cfg;
          cfg.cache_blocks = cache_blocks;
          cfg.write_back = write_back;
          rig->cache = std::make_unique<baselines::BcacheLike>(
              cfg, rig->ssds.back().get(), rig->primary.get());
        } else {
          baselines::FlashcacheConfig cfg;
          cfg.cache_blocks = cache_blocks;
          cfg.write_back = write_back;
          rig->cache = std::make_unique<baselines::FlashcacheLike>(
              cfg, rig->ssds.back().get(), rig->primary.get());
        }
        return rig;
      };
      cells.push_back(fio_cell(
          std::string(scheme) + (write_back ? "/WB" : "/WT"), /*seed=*/7,
          2 * cache_blocks, make_rig));
    }
  }
  const auto res = run_sweep("bench_table2_writeback", cells);

  common::Table t({"Type", "WT (MB/s)", "WB (MB/s)", "Improvement (x)",
                   "paper WT", "paper WB", "paper (x)"});
  const char* paper[2][3] = {{"15.3", "65.9", "4.3"}, {"5.7", "100.3", "17.5"}};
  for (size_t s = 0; s < 2; ++s) {
    const double wt = res[s].throughput_mbps;
    const double wb = res[2 + s].throughput_mbps;
    t.add_row({schemes[s], common::Table::num(wt, 1),
               common::Table::num(wb, 1), common::Table::num(wb / wt, 1),
               paper[s][0], paper[s][1], paper[s][2]});
  }
  t.print();
  return 0;
}
