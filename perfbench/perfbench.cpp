// perfbench: one timed run of the srcache simulator on a fixed workload.
//
// Runs the workload once through engine::ParallelEngine::run and prints one
// JSON record on stdout: wall-clock phases, the deterministic simulated
// outcome and its fingerprint, and, with --trace 1, the per-layer self
// times that the bench-owned wrappers in layers.hpp measure. perfbench/
// run.py runs this binary once per process, many times, and reports medians.
//
// Every run is audited: each SrcCache passes verify_consistency() and its
// provenance ledger balances against each SSD's written bytes. A failed
// audit or an exception sets the record's "error"; run.py counts the run as
// failed, as it does a fingerprint that differs from the pinned one.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "obs/json.hpp"

namespace perfbench {

using namespace srcache;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workloads -------------------------------------------------------------

enum class Scheme { kSrc, kFlashcache5 };

struct Workload {
  const char* name;
  workload::TraceGroup group;
  double scale;      // REPRO_SCALE equivalent
  Scheme scheme;
  u32 tier_mb;       // compressed DRAM tier budget across all domains
  double virtual_s;  // measured virtual duration
  double warmup;     // warm-up traffic, in multiples of the cache's data space
};

// All replay the Table 6 closed loop (4 threads x iodepth 4 per trace) over
// the harness's fixed kEngineDomains partition. perfbench/README.md says
// why each is here.
const Workload kWorkloads[] = {
    {"write-paper", workload::TraceGroup::kWrite, 0.25, Scheme::kSrc, 0, 4.0,
     2.0},
    {"read-fits", workload::TraceGroup::kRead, 0.05, Scheme::kSrc, 0, 2.0, 2.0},
    {"mixed-tier", workload::TraceGroup::kMixed, 0.25, Scheme::kSrc, 576, 1.0,
     2.0},
    {"write-flashcache5", workload::TraceGroup::kWrite, 0.25,
     Scheme::kFlashcache5, 0, 8.0, 0.5},
};

// --- one engine domain -----------------------------------------------------

// Owns one domain's whole stack. run_once keeps every Domain alive past the
// engine run (through its own shared_ptr) to audit it afterwards.
struct Domain {
  LayerTimes times;
  obs::MetricsRegistry registry;
  std::vector<std::unique_ptr<flash::SimSsd>> ssds;
  std::unique_ptr<hdd::IscsiTarget> primary;
  std::unique_ptr<raid::RaidDevice> raid;
  std::unique_ptr<src::SrcCache> src;
  std::unique_ptr<tier::TierCache> tier;
  std::unique_ptr<cache::CacheDevice> baseline;
  workload::TraceSet set;
  // Wrappers of the traced run; empty when untraced.
  std::vector<std::unique_ptr<blockdev::BlockDevice>> timed_devices;
  std::vector<std::unique_ptr<cache::CacheDevice>> timed_caches;
  std::vector<std::unique_ptr<workload::Generator>> timed_gens;

  Clock::time_point build_begin;
  Clock::time_point build_end;
  // Set by a registry gauge: ClosedLoop snapshots the registry when it opens
  // the measured window (after warm-up) and again in finish().
  Clock::time_point window_open;
  int snapshots = 0;

  blockdev::BlockDevice* wrap(blockdev::BlockDevice* d, Layer l, bool traced) {
    if (!traced) return d;
    timed_devices.push_back(std::make_unique<TimedDevice>(d, times, l));
    return timed_devices.back().get();
  }
  cache::CacheDevice* wrap(cache::CacheDevice* c, Layer submit, Layer flush,
                           bool traced) {
    if (!traced) return c;
    timed_caches.push_back(
        std::make_unique<TimedCache>(c, times, submit, flush));
    return timed_caches.back().get();
  }
};

engine::DomainSetup build_domain(Domain& d, const Workload& w, u64 seed,
                                 u32 index, bool traced) {
  const Span build(d.times, kBuild);
  const double dk = w.scale / bench::kEngineDomains;
  const bench::Geometry geo = bench::Geometry::at(dk);
  // The harness sizes NAND geometry with the run-wide scale, not the
  // per-domain one; do the same so the rig matches run_group_sharded's.
  const flash::SsdSpec spec = bench::sized_spec(
      flash::spec_840pro_128(), geo.ssd_capacity_bytes, w.scale);
  const u32 num_ssds = 4;
  for (u32 i = 0; i < num_ssds; ++i) {
    d.ssds.push_back(
        std::make_unique<flash::SimSsd>(spec, /*track_content=*/false));
    {
      const Span pre(d.times, kPrecondition);
      d.ssds.back()->precondition();
    }
    d.ssds.back()->register_metrics(
        obs::Scope(d.registry, "ssd." + std::to_string(i)));
  }
  std::vector<blockdev::BlockDevice*> members;
  for (auto& s : d.ssds) members.push_back(d.wrap(s.get(), kFlash, traced));

  engine::DomainSetup s;
  for (auto& ssd : d.ssds) s.ssds.push_back(ssd.get());
  if (w.scheme == Scheme::kSrc) {
    d.primary = bench::make_primary(dk);
    d.primary->register_metrics(obs::Scope(d.registry, "hdd"));
    src::SrcConfig cfg;  // paper defaults, as bench::make_src_rig sets them
    cfg.erase_group_bytes = geo.erase_group_bytes;
    cfg.chunk_bytes = geo.chunk_bytes;
    cfg.region_bytes_per_ssd = geo.region_bytes_per_ssd;
    cfg.verify_checksums = false;
    cfg.twait = 10 * sim::kMs;
    d.src = std::make_unique<src::SrcCache>(
        cfg, members, d.wrap(d.primary.get(), kHdd, traced));
    d.src->register_metrics(obs::Scope(d.registry, "src"));
    d.src->format(0);
    s.cache = d.wrap(d.src.get(), kSrcSubmit, kSrcFlush, traced);
    s.cfg.provenance = &d.src->provenance();
    if (w.tier_mb > 0) {
      tier::TierConfig tc;  // bench_tier's settings
      tc.budget_bytes = std::max<u64>(
          kBlockSize, u64{w.tier_mb} * MiB / bench::kEngineDomains);
      tc.destage_batch_blocks =
          static_cast<u32>(d.src->config().segment_data_slots(true));
      d.tier = std::make_unique<tier::TierCache>(tc, s.cache, d.src.get());
      d.tier->register_metrics(obs::Scope(d.registry, "tier"));
      s.cache = d.wrap(d.tier.get(), kTier, kTier, traced);
      s.cfg.tier = d.tier.get();
    }
  } else {
    // Flashcache5, as bench::make_flashcache5_rig builds it.
    d.raid = std::make_unique<raid::RaidDevice>(
        raid::RaidConfig{raid::RaidLevel::kRaid5, 1}, members);
    d.primary = bench::make_primary(dk);
    baselines::FlashcacheConfig fc;
    fc.cache_blocks = (num_ssds - 1) * (geo.region_bytes_per_ssd / kBlockSize);
    fc.set_blocks = 512;
    fc.dirty_thresh_pct = 0.90;
    d.baseline = std::make_unique<baselines::FlashcacheLike>(
        fc, d.wrap(d.raid.get(), kRaid, traced),
        d.wrap(d.primary.get(), kHdd, traced));
    s.cache = d.wrap(d.baseline.get(), kBaselines, kBaselines, traced);
  }

  d.set = workload::make_trace_set(w.group, geo.group_footprint_bytes,
                                   bench::domain_seed(seed, index));
  for (workload::Generator* g : d.set.generators()) {
    if (!traced) {
      s.gens.push_back(g);
      continue;
    }
    d.timed_gens.push_back(std::make_unique<TimedGenerator>(g, d.times));
    s.gens.push_back(d.timed_gens.back().get());
  }

  Domain* dp = &d;
  d.registry.gauge_fn("perfbench.snapshot", [dp] {
    if (dp->snapshots++ == 0) dp->window_open = Clock::now();
    return 0.0;
  });
  s.cfg.threads_per_gen = 4;
  s.cfg.iodepth = 4;
  s.cfg.duration = static_cast<sim::SimTime>(w.virtual_s * 1e9);
  s.cfg.warmup_bytes = static_cast<u64>(
      w.warmup * static_cast<double>(3 * geo.region_bytes_per_ssd));
  s.cfg.registry = &d.registry;
  return s;
}

// --- correctness -----------------------------------------------------------

// CRC-32C (Castagnoli), bitwise: independent of the simulator's own crc32c
// so a bug there cannot hide in the check.
class Crc32c {
 public:
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      crc_ ^= static_cast<u32>((v >> (8 * i)) & 0xFF);
      for (int b = 0; b < 8; ++b)
        crc_ = (crc_ >> 1) ^ (0x82F63B78u & (0u - (crc_ & 1u)));
    }
  }
  [[nodiscard]] u32 value() const { return ~crc_; }

 private:
  u32 crc_ = ~0u;
};

// Fingerprint of the deterministic merged outcome: counts, cache and SSD
// statistics, latency histogram buckets, provenance causes and tier
// counters. Wall-clock fields and report formatting are left out.
u32 fingerprint(const workload::RunResult& r) {
  Crc32c c;
  c.add(r.ops);
  c.add(r.bytes);
  const cache::CacheStats& cs = r.cache;
  for (u64 v : {cs.app_read_ops, cs.app_read_blocks, cs.app_write_ops,
                cs.app_write_blocks, cs.read_hit_blocks, cs.read_miss_blocks,
                cs.write_hit_blocks, cs.write_new_blocks, cs.fetch_blocks,
                cs.destage_blocks, cs.gc_copy_blocks, cs.dropped_clean_blocks,
                cs.app_flushes})
    c.add(v);
  const blockdev::DeviceStats& ds = r.ssd;
  for (u64 v : {ds.read_ops, ds.read_blocks, ds.write_ops, ds.write_blocks,
                ds.flushes, ds.trim_ops, ds.trim_blocks})
    c.add(v);
  for (int k = 0; k < obs::kNumReqClasses; ++k) {
    const common::Histogram& h =
        r.latency.histogram(static_cast<obs::ReqClass>(k));
    c.add(h.count());
    c.add(h.sum());
    c.add(h.min());
    c.add(h.max());
    for (int b = 0; b < common::Histogram::num_buckets(); ++b)
      c.add(h.bucket(b));
  }
  for (const auto& [key, cell] : r.provenance.cells()) {
    c.add(key.first);
    c.add(key.second);
    for (u64 v : cell) c.add(v);
  }
  const workload::TierOutcome& t = r.tier;
  for (u64 v : {u64{t.active}, t.hit_blocks, t.miss_blocks, t.admit_blocks,
                t.bypass_blocks, t.promote_blocks, t.destage_blocks,
                t.demote_blocks, t.drop_blocks, t.evict_blocks,
                t.uncompressed_bytes, t.compressed_bytes, t.cpu_compress_ns,
                t.cpu_decompress_ns, t.lost_dirty_blocks, t.resident_blocks,
                t.resident_compressed_bytes, t.dirty_blocks, t.budget_bytes})
    c.add(v);
  return c.value();
}

// Post-run audits; returns the first failure, empty when all pass.
std::string audit(const std::vector<std::shared_ptr<Domain>>& doms,
                  const workload::RunResult& merged) {
  for (size_t i = 0; i < doms.size(); ++i) {
    const Domain& d = *doms[i];
    if (!d.src) continue;
    const Status st = d.src->verify_consistency();
    if (!st.is_ok())
      return "domain " + std::to_string(i) +
             " verify_consistency: " + st.to_string();
    // The ledger is cumulative from construction, after preconditioning
    // reset the SSD counters, so each device must balance exactly.
    for (size_t dev = 0; dev < d.ssds.size(); ++dev) {
      const u64 ledger =
          d.src->provenance().device_bytes(static_cast<u32>(dev));
      const u64 written = d.ssds[dev]->stats().write_blocks * kBlockSize;
      if (ledger != written)
        return "domain " + std::to_string(i) + " ssd " + std::to_string(dev) +
               ": provenance " + std::to_string(ledger) + " B != written " +
               std::to_string(written) + " B";
    }
  }
  if (!merged.provenance.empty() &&
      merged.provenance.flash_bytes() != merged.ssd.write_blocks * kBlockSize)
    return "merged window provenance does not balance SSD writes";
  return {};
}

// --- one timed run ---------------------------------------------------------

struct Barrier {
  Clock::time_point at;
  u64 ops = 0;
  sim::SimTime rel_end = 0;
};

u64 counter(const workload::RunResult& r, const std::string& name) {
  const auto it = r.metrics.counters.find(name);
  return it == r.metrics.counters.end() ? 0 : it->second;
}

// Sum of a per-SSD registry counter ("ssd.<i>.<name>") over all SSDs.
u64 ssd_counter(const workload::RunResult& r, const std::string& name) {
  u64 sum = 0;
  for (const auto& [key, v] : r.metrics.counters)
    if (key.starts_with("ssd.") && key.ends_with("." + name)) sum += v;
  return sum;
}

// JSON names of the Layer values, in enum order.
const char* const kLayerNames[kNumLayers] = {
    "engine.build",
    "flash.precondition",
    "workload.next",
    "tier.submit",
    "src_cache.submit",
    "src_cache.flush",
    "baselines.submit",
    "raid",
    "flash",
    "hdd",
};

// Runs the workload once and returns its JSON record.
std::string run_once(const Workload& w, u64 seed, bool traced, u32 lanes) {
  std::vector<std::shared_ptr<Domain>> doms(bench::kEngineDomains);
  engine::EngineConfig ec;
  ec.shards = lanes;
  ec.threads = lanes;
  engine::ParallelEngine eng(ec);
  std::vector<Barrier> barriers;
  eng.add_epoch_hook([&barriers](const engine::EpochView& v) {
    Barrier b;
    b.at = Clock::now();
    for (const auto& dom : *v.domains) b.ops += dom->ops();
    b.rel_end = v.rel_end;
    barriers.push_back(b);
  });
  // Each factory call writes only its own slot of `doms`.
  const auto factory = [&doms, &w, seed, traced](u32 index, u32) {
    auto d = std::make_shared<Domain>();
    d->build_begin = Clock::now();
    engine::DomainSetup s = build_domain(*d, w, seed, index, traced);
    d->build_end = Clock::now();
    doms[index] = d;
    s.owned = d;
    return s;
  };

  obs::JsonWriter j;
  j.begin_object();
  j.kv("workload", w.name).kv("seed", seed).kv("traced", traced);
  j.kv("lanes", lanes).kv("domains", bench::kEngineDomains);
  j.kv("build_type", PERFBENCH_BUILD_TYPE).kv("compiler", PERFBENCH_COMPILER);

  const Clock::time_point t0 = Clock::now();
  engine::EngineResult er;
  try {
    er = eng.run(bench::kEngineDomains, factory);
  } catch (const std::exception& e) {
    j.kv("error", std::string("exception: ") + e.what());
    return j.end_object().take();
  }
  const Clock::time_point t1 = Clock::now();
  const workload::RunResult& r = er.merged;

  // Lane l runs domains l, l + lanes, ...; sum each lane's phases.
  const u32 used = er.shards;
  std::vector<double> lane_build(used, 0.0);
  std::vector<double> lane_warmup(used, 0.0);
  Clock::time_point last_open = t0;
  LayerTimes layers;
  u64 rmw_writes = 0;
  u64 full_stripe_writes = 0;
  for (u32 i = 0; i < doms.size(); ++i) {
    const Domain& d = *doms[i];
    lane_build[i % used] += seconds_between(d.build_begin, d.build_end);
    lane_warmup[i % used] += seconds_between(d.build_end, d.window_open);
    last_open = std::max(last_open, d.window_open);
    layers.add(d.times);
    if (d.raid) {
      rmw_writes += d.raid->raid_stats().rmw_writes;
      full_stripe_writes += d.raid->raid_stats().full_stripe_writes;
    }
  }
  double busy = 0.0;
  double max_busy = 0.0;
  for (const engine::ShardPerf& sp : er.per_shard) {
    busy += sp.wall_seconds;
    max_busy = std::max(max_busy, sp.wall_seconds);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::string error = audit(doms, r);
  if (barriers.size() < 2 && error.empty())
    error = "fewer than two epoch barriers";
  j.kv("error", error);
  char fp[16];
  std::snprintf(fp, sizeof(fp), "%08x", fingerprint(r));
  j.kv("fingerprint", fp);

  // Wall-clock phases, seconds.
  j.kv("run_s", seconds_between(t0, t1));
  j.kv("setup_s", *std::max_element(lane_build.begin(), lane_build.end()));
  j.kv("warmup_s", *std::max_element(lane_warmup.begin(), lane_warmup.end()));
  if (barriers.size() >= 2) {
    const Barrier& first = barriers.front();
    const Barrier& last = barriers.back();
    const double between = seconds_between(first.at, last.at);
    j.kv("sim_ops_per_s",
         static_cast<double>(last.ops - first.ops) / between);
    j.kv("realtime_factor",
         sim::to_seconds(last.rel_end - first.rel_end) / between);
    j.kv("window_s", seconds_between(last_open, last.at));
    j.kv("merge_s", seconds_between(last.at, t1));
  }
  j.kv("busy_s", busy);
  j.kv("lane_imbalance", max_busy / (busy / used));
  j.kv("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  // Deterministic simulated outcome.
  j.kv("sim_ops", r.ops);
  j.kv("sim_mbps", r.throughput_mbps);
  j.kv("hit_ratio", r.hit_ratio);
  j.kv("io_amplification", r.io_amplification);
  j.kv("read_p99_ms", r.read_lat.p99 / 1e6);
  j.kv("write_p99_ms", r.write_lat.p99 / 1e6);
  j.key("counts").begin_object();
  j.kv("tier.hit_ratio", r.tier.hit_ratio());
  j.kv("tier.destage_blocks", r.tier.destage_blocks);
  j.kv("tier.demote_blocks", r.tier.demote_blocks);
  j.kv("tier.evict_blocks", r.tier.evict_blocks);
  for (const char* name :
       {"segment_seals", "sg_reclaims", "fetch_blocks", "destage_blocks"})
    j.kv(std::string("src_cache.") + name,
         counter(r, std::string("src.") + name));
  j.kv("src_cache.gc_copy_per_app_write",
       r.cache.app_write_blocks == 0
           ? 0.0
           : static_cast<double>(counter(r, "src.gc_copy_blocks")) /
                 static_cast<double>(r.cache.app_write_blocks));
  j.kv("raid.rmw_writes", rmw_writes);
  j.kv("raid.full_stripe_writes", full_stripe_writes);
  j.kv("flash.gc_pages_copied", ssd_counter(r, "gc.pages_copied"));
  j.kv("flash.gc_erases", ssd_counter(r, "gc.erases"));
  const u64 host_pages = ssd_counter(r, "host_pages_written");
  const u64 programmed = ssd_counter(r, "pages_programmed");
  j.kv("flash.nand_write_amp", host_pages == 0
                                   ? 0.0
                                   : static_cast<double>(programmed) /
                                         static_cast<double>(host_pages));
  j.end_object();

  // Per-layer self time (lane-seconds) and call/block counts, summed over
  // domains. Only build and precondition are timed in an untraced run.
  j.key("layers").begin_object();
  for (int l = 0; l < kNumLayers; ++l) {
    j.key(kLayerNames[l]).begin_object();
    j.kv("self_s", layers.self_s[l]).kv("calls", layers.calls[l]);
    j.kv("read_blocks", layers.read_blocks[l]);
    j.kv("write_blocks", layers.write_blocks[l]);
    j.end_object();
  }
  j.end_object();
  return j.end_object().take();
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME [--seed N] [--trace 0|1] "
               "[--lanes N] [--scale K] [--virtual-seconds V]\n",
               msg);
  std::exit(2);
}

int run_main(int argc, char** argv) {
  std::string name;
  u64 seed = 42;
  bool traced = false;
  u32 lanes = 2;
  double scale = 0.0;      // > 0 overrides the workload's scale
  double virtual_s = 0.0;  // > 0 overrides the workload's duration
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string v = argv[++i];
    try {
      if (key == "--workload") {
        name = v;
      } else if (key == "--seed") {
        seed = std::stoull(v);
      } else if (key == "--trace") {
        traced = std::stoi(v) != 0;
      } else if (key == "--lanes") {
        lanes = static_cast<u32>(std::stoul(v));
      } else if (key == "--scale") {
        scale = std::stod(v);
      } else if (key == "--virtual-seconds") {
        virtual_s = std::stod(v);
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (lanes == 0) usage("--lanes must be >= 1");
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads)
    if (name == w.name) found = &w;
  if (found == nullptr) usage(("unknown workload \"" + name + "\"").c_str());
  Workload w = *found;
  if (scale > 0.0) w.scale = scale;
  if (virtual_s > 0.0) w.virtual_s = virtual_s;
  std::printf("%s\n", run_once(w, seed, traced, lanes).c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
