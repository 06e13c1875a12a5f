// Multi-tenant adaptive partitioning (extension over the paper's §4 SRC).
//
// Two deliberately mismatched tenants share one SRC stack: tenant 0 is a
// Zipf-hot, read-heavy server trace whose working set roughly fits the
// cache; tenant 1 is a scan-heavy sequential reader sweeping ~4x the cache.
// A static split wastes whatever it grants the scan (its re-reference
// distance exceeds any affordable share), so the adaptive controller —
// online per-tenant MRCs (SHARDS-sampled ghost LRU) feeding a greedy
// marginal-gain partitioner each epoch — should shift capacity to tenant 0
// and beat every static split on aggregate hit ratio.
//
// Runs: static-25-75, static-50-50, static-75-25 (tenant 0's share first),
// then adaptive. Knobs: REPRO_EPOCH_MS (epoch length, default 1000) and
// REPRO_SHARDS_RATE (MRC sampling rate, default 0.1) on top of the usual
// REPRO_SCALE / REPRO_SECONDS / REPRO_JSON. CI asserts adaptive beats
// static-50-50 via `repro_report --assert-hit-gt`.
#include <atomic>

#include "harness.hpp"

#include "adapt/adaptive.hpp"

using namespace srcache;
using namespace srcache::bench;

namespace {

struct MtWorkload {
  std::unique_ptr<workload::TraceSynth> hot;   // tenant 0
  std::unique_ptr<workload::FioGen> scan;      // tenant 1
  std::unique_ptr<workload::TenantMixGen> mix;
};

MtWorkload make_workload(u64 capacity_blocks, u64 seed) {
  MtWorkload w;
  // Footprint ~1.3x the cache with moderate skew: the MRC keeps a slope all
  // the way to full capacity, so every extra block granted to tenant 0 buys
  // hits — the signal the partitioner is supposed to find. Half writes, so
  // the tenant builds residency at SSD speed instead of HDD-fetch speed.
  workload::TraceSynth::Config hot;
  hot.spec = {"zipf-hot", 4.0, 0.0, 50};
  hot.footprint_blocks = capacity_blocks * 13 / 10;
  hot.offset_blocks = 0;
  hot.zipf_theta = 0.9;
  hot.seed = seed;
  hot.tenant = 0;
  w.hot = std::make_unique<workload::TraceSynth>(hot);

  // An ingest-style sequential write sweep over 4x the cache: none of it is
  // ever re-referenced, so every cached block is pure pollution — the
  // capacity it occupies is exactly what a static split wastes on it.
  workload::FioGen::Config scan;
  scan.span_blocks = capacity_blocks * 4;
  scan.offset_blocks = capacity_blocks * 2;  // disjoint from tenant 0's region
  scan.req_blocks = 16;                      // 64 KiB sequential sweeps
  scan.read_pct = 0;
  scan.sequential = true;
  scan.seed = seed + 1;
  scan.tenant = 1;
  w.scan = std::make_unique<workload::FioGen>(scan);

  // The hot tenant issues 3x the requests; the sweep still moves more bytes
  // (16-block writes), so neither tenant is negligible in the aggregate.
  w.mix = std::make_unique<workload::TenantMixGen>(
      std::vector<workload::TenantMixGen::Source>{{w.hot.get(), 3.0},
                                                  {w.scan.get(), 1.0}},
      seed + 2);
  return w;
}

}  // namespace

int main() {
  print_header("Multi-tenant adaptive partitioning",
               "extension: adaptive capacity split over the §4 SRC stack");
  const double k = scale();

  common::Table t({"Run", "MB/s", "hit", "t0 hit", "t1 hit", "t0 share",
                   "epochs", "rebal"});
  struct Split {
    const char* name;
    double t0_share;  // < 0: the adaptive controller sets the shares
  };
  const Split splits[] = {{"static-25-75", 0.25},
                          {"static-50-50", 0.50},
                          {"static-75-25", 0.75},
                          {"adaptive", -1.0}};

  // A deliberately small cache region (6 erase groups per SSD instead of the
  // paper's 18): partitioning only matters when capacity is the contended
  // resource, and the closed loop at bench scale cannot push enough traffic
  // to contend 18 SGs.
  const auto small_region = [](src::SrcConfig& cfg, const Geometry&) {
    cfg.region_bytes_per_ssd = 6 * cfg.erase_group_bytes;
  };
  struct MtDomain {
    std::unique_ptr<SrcRig> rig;
    MtWorkload w;
    std::unique_ptr<adapt::AdaptiveController> ctrl;
  };

  // One single-domain cell per split. Every cell builds the same geometry,
  // so each stores the same capacity.
  std::atomic<u64> capacity{0};
  std::vector<Cell> cells;
  for (const Split& split : splits) {
    const double t0_share = split.t0_share;
    cells.push_back({split.name, 1, false, [=, &capacity](u32, u64, bool) {
      auto holder = std::make_shared<MtDomain>();
      holder->rig = make_src_rig(default_src_config(), flash::spec_840pro_128(),
                                 k, true, small_region);
      SrcRig& rig = *holder->rig;
      const u64 cap = rig.cache->config().capacity_blocks();
      capacity = cap;
      holder->w = make_workload(cap, /*seed=*/42);

      engine::DomainSetup s = domain_over(rig, {holder->w.mix.get()}, 8, 8);
      workload::RunConfig& rc = s.cfg;
      rc.warmup_bytes = 2 * 3 * rig.cache->config().region_bytes_per_ssd;
      rc.registry = &rig.registry;
      rc.timeseries_interval = repro_timeseries_interval();
      rc.num_tenants = 2;

      if (t0_share < 0) {
        adapt::AdaptConfig ac;
        ac.num_tenants = 2;
        ac.capacity_blocks = cap;
        ac.epoch = repro_epoch();
        ac.sampling_rate = repro_shards_rate();
        src::SrcCache* cache = rig.cache.get();
        holder->ctrl = std::make_unique<adapt::AdaptiveController>(
            ac, [cache](const std::vector<u64>& q) {
              cache->set_tenant_quotas(q);
            });
        holder->ctrl->register_metrics(obs::Scope(rig.registry, "adapt"));
        rc.adapt = holder->ctrl.get();
      } else {
        const u64 t0 = static_cast<u64>(static_cast<double>(cap) * t0_share);
        rig.cache->set_tenant_quotas({t0, cap - t0});
      }
      s.owned = holder;
      return s;
    }});
  }
  const auto runs = run_sweep("bench_multitenant", cells);

  for (size_t i = 0; i < runs.size(); ++i) {
    const workload::RunResult& res = runs[i];
    const double t0_final_share =
        splits[i].t0_share >= 0
            ? splits[i].t0_share
            : static_cast<double>(res.tenants[0].target_blocks) /
                  static_cast<double>(capacity);
    t.add_row({cells[i].name, common::Table::num(res.throughput_mbps, 1),
               common::Table::num(res.hit_ratio, 3),
               common::Table::num(res.tenants[0].hit_ratio(), 3),
               common::Table::num(res.tenants[1].hit_ratio(), 3),
               common::Table::num(t0_final_share, 2),
               std::to_string(res.adapt_epochs),
               std::to_string(res.adapt_rebalances)});
  }
  t.print();
  return 0;
}
