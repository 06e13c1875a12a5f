// Shared experiment rig for the bench binaries.
//
// Every bench reproduces one table or figure of the paper at a configurable
// scale: REPRO_SCALE multiplies device capacities, erase groups, cache
// regions and workload footprints together, preserving every pressure ratio
// (cache/working-set, OPS fraction, segments per SG). REPRO_SECONDS sets the
// virtual window per point; the paper measures 10 wall-clock minutes, but
// virtual seconds change only statistical noise, not the shape. Every
// REPRO_* knob is one row of kKnobs below (name, type, range, default,
// depends-on, doc); print_header() checks them all before any run.
#pragma once

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "baselines/bcache_like.hpp"
#include "baselines/flashcache_like.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "engine/engine.hpp"
#include "cost/cost_model.hpp"
#include "fault/fault_injector.hpp"
#include "flash/sim_ssd.hpp"
#include "hdd/iscsi_target.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "raid/raid_device.hpp"
#include "raid/rebuild.hpp"
#include "src_cache/src_cache.hpp"
#include "tier/tier_cache.hpp"
#include "workload/report.hpp"
#include "workload/runner.hpp"
#include "workload/trace_synth.hpp"

namespace srcache::bench {

// --- REPRO_* knob table ----------------------------------------------------

// One environment knob, parsed strictly by type: a typo'd REPRO_SCALE=0,5
// must abort, not silently run the wrong experiment. `def` is the default
// as knob text (nullptr = unset); a knob is on when set to anything else.
// Setting a knob while all its `depends` parents ('/'-separated) are off
// would be silently ignored, so it is refused.
struct Knob {
  enum Type { kFloat, kInt, kPath, kEviction, kAdmission, kFaultPlan };
  const char* name;
  Type type;
  double lo, hi;  // accepted range of kFloat/kInt values
  const char* def;
  const char* depends;
  const char* doc;
};

// The single declaration of every REPRO_* knob. EXPERIMENTS.md's "REPRO_*
// knob reference" mirrors it row for row (tests/knob_table_test.cpp).
// clang-format off
inline constexpr std::array<Knob, 23> kKnobs = {{
    {"REPRO_SCALE", Knob::kFloat, 1e-3, 64, "0.25", nullptr,
     "geometry/footprint scale factor vs the paper's testbed"},
    {"REPRO_SECONDS", Knob::kFloat, 1e-3, 86400, "10", nullptr,
     "virtual measurement-window length per run"},
    {"REPRO_JSON", Knob::kPath, 0, 0, nullptr, nullptr,
     "write all measured runs as one JSON document (workload/report.hpp)"},
    {"REPRO_TRACE", Knob::kPath, 0, 0, nullptr, nullptr,
     "write the last SRC run's domain-0 timeline as a Chrome trace"},
    {"REPRO_TIMESERIES_MS", Knob::kFloat, 0, 1e9, "0", "REPRO_JSON",
     "fixed-interval time-series sampling embedded per run"},
    {"REPRO_EPOCH_MS", Knob::kFloat, 1, 1e9, "1000", nullptr,
     "adaptive-partition epoch length (bench_multitenant)"},
    {"REPRO_SHARDS_RATE", Knob::kFloat, 1e-4, 1, "0.1", nullptr,
     "SHARDS spatial sampling rate of the MRC profilers"},
    {"REPRO_THREADS", Knob::kInt, 0, 256, "1", nullptr,
     "worker threads over a bench's domains; 0 = min(domains, hardware)"},
    {"REPRO_POLICY", Knob::kEviction, 0, 0, "paper", nullptr,
     "GC replacement policy (src/policy) for the single-policy benches"},
    {"REPRO_ADMIT", Knob::kAdmission, 0, 0, "always", nullptr,
     "read-miss fill admission policy for the single-policy benches"},
    {"REPRO_SPAN_SAMPLE", Knob::kFloat, 0, 1, "0", nullptr,
     "op-span head-sampling rate (obs/span.hpp)"},
    {"REPRO_SLO_MBPS", Knob::kFloat, 0, 1e9, "0", nullptr,
     "SLO floor: per-epoch throughput (MB/s)"},
    {"REPRO_SLO_READ_P99_MS", Knob::kFloat, 0, 1e9, "0", nullptr,
     "SLO ceiling: per-epoch read p99 (ms)"},
    {"REPRO_SLO_WRITE_P99_MS", Knob::kFloat, 0, 1e9, "0", nullptr,
     "SLO ceiling: per-epoch write p99 (ms)"},
    {"REPRO_SLO_MAX_DEGRADED", Knob::kInt, 0, 256, nullptr, nullptr,
     "tolerated degraded domains per epoch"},
    {"REPRO_SLO_BUDGET", Knob::kFloat, 0, 1, "0.1",
     "REPRO_SLO_MBPS/REPRO_SLO_READ_P99_MS/REPRO_SLO_WRITE_P99_MS/"
     "REPRO_SLO_MAX_DEGRADED",
     "error budget: fraction of epochs allowed to violate"},
    {"REPRO_FAULT_PLAN", Knob::kFaultPlan, 0, 0, nullptr, nullptr,
     "scripted fault schedule per engine domain (fault/fault_plan.hpp)"},
    {"REPRO_REBUILD_MBPS", Knob::kFloat, 1e-3, 1e6, "256", "REPRO_FAULT_PLAN",
     "background hot-spare rebuild copy-rate limit (MB/s)"},
    {"REPRO_REBUILD_SPARES", Knob::kInt, 0, 255, "1", "REPRO_FAULT_PLAN",
     "initial hot-spare pool per domain array"},
    {"REPRO_TIER_MB", Knob::kInt, 0, 1048576, "0", nullptr,
     "compressed DRAM tier budget across all domains; 0 = no tier"},
    {"REPRO_TIER_POLICY", Knob::kEviction, 0, 0, "paper", "REPRO_TIER_MB",
     "tier eviction policy (second chance over the FIFO walk)"},
    {"REPRO_TIER_DIRTY_PCT", Knob::kInt, 0, 100, "50", "REPRO_TIER_MB",
     "max dirty share of the tier budget before write-back destaging"},
    {"REPRO_TIER_CPU_NSPB", Knob::kFloat, 0, 1000, "1.0", "REPRO_TIER_MB",
     "simulated compression CPU cost; decompression charges half"},
}};
// clang-format on

// A knob name checked against kKnobs at compile time.
struct KnobId {
  size_t index;
  consteval KnobId(const char* name) : index(0) {
    while (std::string_view(kKnobs.at(index).name) != name) ++index;
  }
};

struct KnobValue {
  bool set = false;  // non-empty in the environment
  double num = 0.0;  // kFloat/kInt value; enum ordinal of the policy kinds
  std::string text;  // the environment value, or the default
};

template <typename... Args>
std::string knob_message(const char* fmt, Args... args) {
  std::string s(static_cast<size_t>(std::snprintf(nullptr, 0, fmt, args...)),
                '\0');
  std::snprintf(s.data(), s.size() + 1, fmt, args...);
  return s;
}

// Parses `text` as a value of `k` into `out`: "" on success, else the error.
inline std::string parse_knob(const Knob& k, const char* text,
                              KnobValue& out) {
  out.text = text;
  const auto refuse = [&](const std::string& want) {
    return knob_message(
        "%s=\"%s\" is not %s; refusing to run with a misconfigured knob",
        k.name, text, want.c_str());
  };
  const auto kind = [&](auto parsed, const char* names) {
    if (!parsed) return refuse(names);
    out.num = static_cast<double>(*parsed);
    return std::string();
  };
  const bool is_int = k.type == Knob::kInt;
  char* end = nullptr;
  errno = 0;
  switch (k.type) {
    case Knob::kFloat:
    case Knob::kInt:
      out.num = is_int ? static_cast<double>(std::strtol(text, &end, 10))
                       : std::strtod(text, &end);
      if (errno != 0 || end == text || *end != '\0' ||
          !std::isfinite(out.num) || out.num < k.lo || out.num > k.hi)
        return refuse(knob_message(
            is_int ? "an integer in [%.0f, %.0f]" : "a number in [%g, %g]",
            k.lo, k.hi));
      return "";
    case Knob::kPath:
      return "";
    case Knob::kEviction:
      return kind(policy::parse_eviction(text),
                  "one of {paper, s3fifo, sieve}");
    case Knob::kAdmission:
      return kind(policy::parse_admission(text), "one of {always, ghost}");
    case Knob::kFaultPlan: {
      const auto plan = fault::FaultPlan::parse(text);
      return plan.is_ok() ? "" : refuse("a plan: " + plan.status().to_string());
    }
  }
  return "";
}

// Every knob resolved from one environment, plus the first configuration
// error ("" when the whole set is valid).
struct KnobSet {
  std::array<KnobValue, kKnobs.size()> v;
  std::string error;

  [[nodiscard]] const KnobValue& operator[](KnobId id) const {
    return v[id.index];
  }
  [[nodiscard]] bool on(size_t i) const {
    if (!v[i].set || kKnobs[i].def == nullptr) return v[i].set;
    KnobValue def;
    parse_knob(kKnobs[i], kKnobs[i].def, def);
    return v[i].num != def.num;
  }
};

// Parses and cross-checks every knob; an empty value counts as unset.
// `names` lists the REPRO_* variables present in the environment: one that
// is no kKnobs row (a typo, or a retired knob) would be silently ignored,
// so it is refused.
inline KnobSet resolve_knobs(
    const std::function<const char*(const char* name)>& env,
    const std::vector<std::string>& names) {
  KnobSet ks;
  for (const std::string& name : names) {
    const char* s = env(name.c_str());
    if (s != nullptr && *s != '\0' &&
        std::none_of(kKnobs.begin(), kKnobs.end(),
                     [&](const Knob& k) { return name == k.name; }))
      return {{}, name + " is not a REPRO_* knob; refusing to run with it"};
  }
  for (size_t i = 0; i < kKnobs.size(); ++i) {
    const char* s = env(kKnobs[i].name);
    ks.v[i].set = s != nullptr && *s != '\0';
    const char* text = ks.v[i].set ? s : kKnobs[i].def;
    if (text != nullptr && ks.error.empty())
      ks.error = parse_knob(kKnobs[i], text, ks.v[i]);
  }
  if (!ks.error.empty()) return ks;
  for (size_t i = 0; i < kKnobs.size(); ++i) {
    if (kKnobs[i].depends == nullptr || !ks.v[i].set) continue;
    const std::string parents = "/" + std::string(kKnobs[i].depends) + "/";
    bool parent_on = false;
    for (size_t j = 0; j < kKnobs.size(); ++j) {
      const std::string slot = "/" + std::string(kKnobs[j].name) + "/";
      if (ks.on(j) && parents.find(slot) != std::string::npos) parent_on = true;
    }
    if (!parent_on) {
      ks.error = knob_message(
          "%s is set but %s is unset or off, so it would be silently ignored",
          kKnobs[i].name, kKnobs[i].depends);
      return ks;
    }
  }
  const KnobValue& json = ks["REPRO_JSON"];
  const KnobValue& trace = ks["REPRO_TRACE"];
  if (json.set && trace.set && json.text == trace.text) {
    ks.error = "REPRO_JSON and REPRO_TRACE both name " + json.text +
               ": the two outputs would overwrite each other";
  } else if (static_cast<sim::SimTime>(ks["REPRO_TIMESERIES_MS"].num * 1e6) >
             static_cast<sim::SimTime>(ks["REPRO_SECONDS"].num * 1e9)) {
    ks.error =
        "REPRO_TIMESERIES_MS exceeds REPRO_SECONDS: no interval would close";
  }
  return ks;
}

// The process environment's knobs, resolved on first use. print_header()
// refuses to run when they are invalid.
inline const KnobSet& knobs() {
  static const KnobSet ks = [] {
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e)
      if (std::string_view(*e).starts_with("REPRO_"))
        names.emplace_back(*e, std::strcspn(*e, "="));
    return resolve_knobs([](const char* n) { return std::getenv(n); }, names);
  }();
  return ks;
}

inline double knob_num(KnobId id) { return knobs()[id].num; }
// The knob's environment value, or nullptr when unset.
inline const char* knob_text(KnobId id) {
  return knobs()[id].set ? knobs()[id].text.c_str() : nullptr;
}

inline double scale() { return knob_num("REPRO_SCALE"); }
inline sim::SimTime run_duration() {
  return static_cast<sim::SimTime>(knob_num("REPRO_SECONDS") * 1e9);
}
inline const char* repro_json_path() { return knob_text("REPRO_JSON"); }
inline const char* repro_trace_path() { return knob_text("REPRO_TRACE"); }
inline sim::SimTime repro_timeseries_interval() {
  return static_cast<sim::SimTime>(knob_num("REPRO_TIMESERIES_MS") * 1e6);
}
inline sim::SimTime repro_epoch() {
  return static_cast<sim::SimTime>(knob_num("REPRO_EPOCH_MS") * 1e6);
}
inline double repro_shards_rate() { return knob_num("REPRO_SHARDS_RATE"); }
inline u32 repro_tier_mb() {
  return static_cast<u32>(knob_num("REPRO_TIER_MB"));
}
inline double repro_span_sample() { return knob_num("REPRO_SPAN_SAMPLE"); }
inline const char* repro_fault_plan() { return knob_text("REPRO_FAULT_PLAN"); }

// Borrowed raw pointers over an owning SSD vector (shared by all rigs).
inline std::vector<blockdev::BlockDevice*> borrow_ssds(
    const std::vector<std::unique_ptr<flash::SimSsd>>& ssds) {
  std::vector<blockdev::BlockDevice*> v;
  v.reserve(ssds.size());
  for (const auto& s : ssds) v.push_back(s.get());
  return v;
}

// Writes the tracer's timeline and sampled op-span trees to REPRO_TRACE as
// one Chrome trace-event document (overwriting the previous run's), and
// reports its event and drop counts on stdout. Exits 1 if it cannot.
inline void write_chrome_trace(const obs::SpanTracer& tracer) {
  const std::string json = tracer.to_chrome_json();
  std::FILE* f = std::fopen(repro_trace_path(), "w");
  bool ok = f != nullptr &&
            std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "REPRO_TRACE: cannot write %s\n", repro_trace_path());
    std::exit(1);
  }
  std::printf("[trace] %s: events=%zu dropped=%llu\n", repro_trace_path(),
              tracer.timeline().size(),
              static_cast<unsigned long long>(tracer.timeline_dropped()));
}

inline workload::ReproReport& json_report() {
  static workload::ReproReport report(scale(),
                                      sim::to_seconds(run_duration()));
  return report;
}

// Records one measured run into the REPRO_JSON document (no-op without the
// env var). The file is rewritten after every run so a crashed or
// interrupted bench still leaves valid JSON behind; exits 1 if it cannot.
inline void report_run(const char* bench, const std::string& name,
                       const workload::RunResult& r) {
  if (repro_json_path() == nullptr) return;
  json_report().add(bench, name, r);
  if (!json_report().write_file(repro_json_path())) {
    std::fprintf(stderr, "REPRO_JSON: cannot write %s\n", repro_json_path());
    std::exit(1);
  }
}

// Paper geometry scaled: erase group, chunk, 18-SG cache region.
struct Geometry {
  u64 erase_group_bytes;
  u64 chunk_bytes;
  u64 region_bytes_per_ssd;  // 18 erase groups
  u64 ssd_capacity_bytes;    // region + spare (the paper's dummy-filled rest)
  u64 group_footprint_bytes; // ~50 GB per trace group at scale 1

  static Geometry at(double k) {
    Geometry g;
    g.erase_group_bytes = static_cast<u64>(256.0 * k) * MiB;
    if (g.erase_group_bytes < 8 * MiB) g.erase_group_bytes = 8 * MiB;
    g.chunk_bytes = 512 * KiB;
    g.region_bytes_per_ssd = 18 * g.erase_group_bytes;
    g.ssd_capacity_bytes = g.region_bytes_per_ssd + 2 * g.erase_group_bytes;
    g.group_footprint_bytes = static_cast<u64>(50.0 * k * 1024.0) * MiB;
    return g;
  }
};

// Scales an SsdSpec's NAND geometry so the device exports exactly
// `capacity` with its erase group scaled by the same factor as everything
// else (flash block count and per-op timing stay realistic).
inline flash::SsdSpec sized_spec(flash::SsdSpec s, u64 capacity_bytes,
                                 double k = scale()) {
  s.capacity_bytes = capacity_bytes;
  const u64 target_eg = std::max<u64>(
      8 * MiB,
      static_cast<u64>(static_cast<double>(s.erase_group_bytes()) * k));
  u64 ppb = target_eg / (static_cast<u64>(s.units) * kBlockSize);
  // Power-of-two pages per block, at least 64 (256 KiB flash blocks).
  u64 rounded = 64;
  while (rounded * 2 <= ppb) rounded *= 2;
  s.pages_per_block = rounded;
  // Never let one erase group exceed a quarter of the device.
  while (static_cast<u64>(s.units) * s.pages_per_block * kBlockSize >
             capacity_bytes / 4 &&
         s.pages_per_block > 64) {
    s.pages_per_block /= 2;
  }
  return s;
}

struct SrcRig {
  Geometry geo;
  std::vector<std::unique_ptr<flash::SimSsd>> ssds;
  std::unique_ptr<hdd::IscsiTarget> primary;
  std::unique_ptr<src::SrcCache> cache;
  // Registry over the whole stack ("src.*", "ssd.<i>.*", "hdd.*"); wired by
  // make_src_rig. Op-span tracer and timeline, allocated on demand by
  // observe_rig().
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::SpanTracer> spans;

  [[nodiscard]] std::vector<blockdev::BlockDevice*> ssd_ptrs() const {
    return borrow_ssds(ssds);
  }
};

inline std::unique_ptr<hdd::IscsiTarget> make_primary(double k) {
  hdd::IscsiConfig cfg;
  cfg.disk.capacity_bytes = static_cast<u64>(2000.0 * k * 1024.0) * MiB;
  cfg.disk.track_content = false;
  // The target server's page cache scales with the testbed (32 GB host).
  cfg.server_cache_bytes = static_cast<u64>(24.0 * k * 1024.0) * MiB;
  cfg.dirty_limit_bytes = static_cast<u64>(1.0 * k * 1024.0) * MiB;
  return std::make_unique<hdd::IscsiTarget>(cfg);
}

// Builds the full SRC stack: 4 preconditioned SSDs + iSCSI primary.
// `cfg_tweak`, when set, runs after the geometry-derived fields are filled
// in and before the cache is built — the hook a bench uses to sweep a
// geometry-coupled parameter (e.g. Fig. 4's erase-group size) without
// make_src_rig overwriting it.
inline std::unique_ptr<SrcRig> make_src_rig(
    const src::SrcConfig& overrides, const flash::SsdSpec& base_spec,
    double k = scale(), bool precondition = true,
    const std::function<void(src::SrcConfig&, const Geometry&)>& cfg_tweak =
        {}) {
  auto rig = std::make_unique<SrcRig>();
  rig->geo = Geometry::at(k);

  src::SrcConfig cfg = overrides;
  cfg.erase_group_bytes = rig->geo.erase_group_bytes;
  cfg.chunk_bytes = rig->geo.chunk_bytes;
  cfg.region_bytes_per_ssd = rig->geo.region_bytes_per_ssd;
  cfg.verify_checksums = false;  // perf runs use non-tracking devices
  cfg.twait = 10 * sim::kMs;     // see EXPERIMENTS.md (paper: 20 us)
  if (cfg_tweak) cfg_tweak(cfg, rig->geo);

  const flash::SsdSpec spec =
      sized_spec(base_spec, rig->geo.ssd_capacity_bytes);
  for (u32 i = 0; i < cfg.num_ssds; ++i) {
    rig->ssds.push_back(
        std::make_unique<flash::SimSsd>(spec, /*track_content=*/false));
    if (precondition) rig->ssds.back()->precondition();
    rig->ssds.back()->register_metrics(
        obs::Scope(rig->registry, "ssd." + std::to_string(i)));
  }
  rig->primary = make_primary(k);
  rig->primary->register_metrics(obs::Scope(rig->registry, "hdd"));
  rig->cache =
      std::make_unique<src::SrcCache>(cfg, rig->ssd_ptrs(), rig->primary.get());
  rig->cache->register_metrics(obs::Scope(rig->registry, "src"));
  rig->cache->format(0);
  return rig;
}

inline src::SrcConfig default_src_config() {
  src::SrcConfig cfg;  // paper defaults (Table 7 bold entries)
  // Benches pass this config into make_src_rig / src_cell, so the
  // knob-selected policies propagate into every engine domain's stack.
  cfg.eviction = static_cast<policy::EvictionKind>(knob_num("REPRO_POLICY"));
  cfg.admission = static_cast<policy::AdmissionKind>(knob_num("REPRO_ADMIT"));
  return cfg;
}

// Bcache5 / Flashcache5: the baseline over a RAID-5 of the same four SSDs
// (§5.4 settings: 4 KiB RAID chunk, 2 MiB sets/buckets, 90% thresholds).
// Fig. 1 puts the same caches over RAID-0/1/4 as well.
struct BaselineRig {
  Geometry geo;
  std::vector<std::unique_ptr<flash::SimSsd>> ssds;
  std::unique_ptr<raid::RaidDevice> raid;
  std::unique_ptr<hdd::IscsiTarget> primary;
  std::unique_ptr<cache::CacheDevice> cache;
  // Op-span tracer (REPRO_SPAN_SAMPLE): the RAID layer contributes stripe-
  // strategy children, the SSDs their NAND descent.
  std::unique_ptr<obs::SpanTracer> spans;

  [[nodiscard]] std::vector<blockdev::BlockDevice*> ssd_ptrs() const {
    return borrow_ssds(ssds);
  }
};

inline u64 baseline_cache_blocks(const Geometry& geo, raid::RaidLevel level) {
  // Same cache region as SRC: 18 erase groups per SSD worth of data space,
  // over the data columns of make_baseline_rig's four SSDs.
  return raid::data_cols(level, 4) * (geo.region_bytes_per_ssd / kBlockSize);
}

enum class Baseline { kBcache, kFlashcache };

inline std::unique_ptr<BaselineRig> make_baseline_rig(
    Baseline kind, const flash::SsdSpec& base_spec, double k,
    raid::RaidLevel level = raid::RaidLevel::kRaid5) {
  auto rig = std::make_unique<BaselineRig>();
  rig->geo = Geometry::at(k);
  const flash::SsdSpec spec =
      sized_spec(base_spec, rig->geo.ssd_capacity_bytes);
  for (int i = 0; i < 4; ++i) {
    rig->ssds.push_back(
        std::make_unique<flash::SimSsd>(spec, /*track_content=*/false));
    rig->ssds.back()->precondition();
  }
  raid::RaidConfig rc{level, 1};  // 4 KiB chunks (paper's optimal for 4K RW)
  rig->raid = std::make_unique<raid::RaidDevice>(rc, rig->ssd_ptrs());
  rig->primary = make_primary(k);
  const u64 cache_blocks = baseline_cache_blocks(rig->geo, level);
  if (kind == Baseline::kBcache) {
    baselines::BcacheConfig cfg;
    cfg.cache_blocks = cache_blocks;
    cfg.bucket_blocks = 512;        // 2 MiB buckets
    cfg.writeback_percent = 0.90;   // §5.4 setting
    rig->cache = std::make_unique<baselines::BcacheLike>(
        cfg, rig->raid.get(), rig->primary.get());
  } else {
    baselines::FlashcacheConfig cfg;
    cfg.cache_blocks = cache_blocks;
    cfg.set_blocks = 512;           // 2 MiB sets
    cfg.dirty_thresh_pct = 0.90;    // §5.4 setting
    rig->cache = std::make_unique<baselines::FlashcacheLike>(
        cfg, rig->raid.get(), rig->primary.get());
  }
  return rig;
}

// Under REPRO_SPAN_SAMPLE, or with a `timeline_cap` > 0, attaches an op-span
// tracer to the rig's top layer (the cache's src.*/backend.* or the RAID's
// stripe spans) and to each SSD (ssd.*/nand.* descent tagged with its array
// index), once per rig. Its seed is derived from (not equal to) the trace
// seed, so the sampling stream never aliases the workload's own RNG streams.
template <typename Rig, typename Top>
obs::SpanTracer* attach_spans(Rig& rig, Top& top, u64 seed,
                              size_t timeline_cap = 0) {
  if ((repro_span_sample() > 0.0 || timeline_cap > 0) && !rig.spans) {
    rig.spans = std::make_unique<obs::SpanTracer>(
        common::SplitMix64(seed).next(), repro_span_sample(), size_t{1} << 16,
        timeline_cap);
    top.set_span(rig.spans.get());
    for (size_t i = 0; i < rig.ssds.size(); ++i)
      rig.ssds[i]->set_span(rig.spans.get(), static_cast<u32>(i));
  }
  return rig.spans.get();
}

// Wires an SRC rig into a run's observability (idempotent per rig): the
// metrics registry and write-provenance ledger always, op spans per
// attach_spans, and with `trace` a timeline of the whole stack, primary
// included. The timeline drops the newest events once full; the Chrome
// document and write_chrome_trace's stdout line carry the drop count.
inline void observe_rig(SrcRig& rig, u64 seed, bool trace,
                        workload::RunConfig& rc) {
  rc.registry = &rig.registry;
  rc.provenance = &rig.cache->provenance();
  rc.spans = attach_spans(rig, *rig.cache, seed, trace ? size_t{1} << 16 : 0);
  rig.primary->set_span(rc.spans);
}

// --- sweeps: every cell of a bench in one engine job (src/engine) ---------

// The fixed logical partition bench groups are split into. A property of
// the experiment, NOT of REPRO_THREADS: every execution configuration runs
// these same domains, which is what makes the merged output bit-identical
// across thread counts. 8 matches the paper-scale geometry exactly (at the
// default REPRO_SCALE=0.25 each domain's erase group lands on the 8 MiB
// floor rather than below it).
inline constexpr u32 kEngineDomains = 8;

// The Table 6 trace groups, in the order every bench tabulates them.
inline constexpr workload::TraceGroup kTraceGroups[] = {
    workload::TraceGroup::kWrite, workload::TraceGroup::kMixed,
    workload::TraceGroup::kRead};

// Per-domain seed stream: expand the group seed so domains replay distinct
// (but fixed) trace sets regardless of build order or lane placement.
inline u64 domain_seed(u64 seed, u32 index) {
  common::SplitMix64 seq(seed);
  u64 dseed = 0;
  for (u32 i = 0; i <= index; ++i) dseed = seq.next();
  return dseed;
}

// One cell of a bench's table: `domains` engine domains that merge into the
// run reported as `name`. build(local, dseed, trace) builds domain `local`,
// dseed = domain_seed(42, local); it may run on a worker thread, so it reads
// only what it captured. `trace` asks for a timeline (REPRO_TRACE): a sweep
// sets it on domain 0 of its last `traceable` cell only and writes the
// tracer that domain's RunConfig::spans names.
struct Cell {
  std::string name;
  u32 domains = 1;
  bool traceable = false;
  std::function<engine::DomainSetup(u32 local, u64 dseed, bool trace)> build;
};

// What one domain owns (DomainSetup::owned): its rig, the trace set or FIO
// stream it replays, and the fault injector, rebuild engine and DRAM tier a
// knob or a cell arms.
template <typename Rig>
struct Domain {
  std::unique_ptr<Rig> rig;
  workload::TraceSet set;
  std::unique_ptr<workload::FioGen> fio;
  std::unique_ptr<fault::FaultInjector> fault;
  std::unique_ptr<raid::RebuildManager> rebuild;
  std::unique_ptr<tier::TierCache> tier;
};

// A domain over `rig` driving `gens`, each with `threads` streams at
// `iodepth`, for the REPRO_SECONDS window.
template <typename Rig>
engine::DomainSetup domain_over(const Rig& rig,
                                std::vector<workload::Generator*> gens,
                                u32 threads, u32 iodepth) {
  engine::DomainSetup s;
  s.cache = rig.cache.get();
  s.ssds = rig.ssd_ptrs();
  s.gens = std::move(gens);
  s.cfg.threads_per_gen = threads;
  s.cfg.iodepth = iodepth;
  s.cfg.duration = run_duration();
  return s;
}

// One engine domain's replay over `h.rig`: the trace set of the domain's
// seed and the paper's replay settings, shared by every trace replay: each
// trace is replayed with 4 threads at iodepth 4, and the measurement window
// starts after an untimed warm-up of about twice the cache's data capacity,
// approximating the paper's long warm runs.
template <typename Rig>
engine::DomainSetup replay_domain(Domain<Rig>& h, workload::TraceGroup group,
                                  u64 dseed) {
  h.set = workload::make_trace_set(group, h.rig->geo.group_footprint_bytes,
                                   dseed);
  engine::DomainSetup s = domain_over(*h.rig, h.set.generators(), 4, 4);
  s.cfg.warmup_bytes = 2 * 3 * h.rig->geo.region_bytes_per_ssd;
  s.cfg.timeseries_interval = repro_timeseries_interval();
  return s;
}

// One trace group replayed over SRC: kEngineDomains full SRC stacks at
// scale k/kEngineDomains, each replaying its own seed-derived trace set,
// with the provenance ledger wired and spans per REPRO_SPAN_SAMPLE.
// `tier_mb` is the DRAM tier budget summed across the domains: -1 follows
// REPRO_TIER_MB, 0 forces the tier off. `cfg_tweak` is forwarded to every
// domain's make_src_rig (see there).
inline Cell src_cell(
    std::string name, const src::SrcConfig& overrides,
    const flash::SsdSpec& base_spec, workload::TraceGroup group, double k,
    i64 tier_mb = -1,
    std::function<void(src::SrcConfig&, const Geometry&)> cfg_tweak = {}) {
  const double dk = k / kEngineDomains;
  const u64 tier_bytes =
      (tier_mb < 0 ? static_cast<u64>(repro_tier_mb())
                   : static_cast<u64>(tier_mb)) *
      MiB;
  return {std::move(name), kEngineDomains, /*traceable=*/true,
          [=](u32, u64 dseed, bool trace) {
    auto holder = std::make_shared<Domain<SrcRig>>();
    holder->rig = make_src_rig(overrides, base_spec, dk, true, cfg_tweak);
    engine::DomainSetup s = replay_domain(*holder, group, dseed);
    if (tier_bytes > 0) {
      // One tier per domain, budget split evenly — the same 1/kEngineDomains
      // scaling every other capacity gets, so pressure ratios are preserved
      // and the merged outcome stays bit-identical across thread counts.
      tier::TierConfig tc;
      tc.budget_bytes = std::max<u64>(kBlockSize, tier_bytes / kEngineDomains);
      tc.dirty_pct = static_cast<u32>(knob_num("REPRO_TIER_DIRTY_PCT"));
      tc.eviction =
          static_cast<policy::EvictionKind>(knob_num("REPRO_TIER_POLICY"));
      tc.cpu_ns_per_byte = knob_num("REPRO_TIER_CPU_NSPB");
      tc.destage_batch_blocks = static_cast<u32>(
          holder->rig->cache->config().segment_data_slots(true));
      holder->tier = std::make_unique<tier::TierCache>(
          tc, holder->rig->cache.get(), holder->rig->cache.get());
      holder->tier->register_metrics(obs::Scope(holder->rig->registry, "tier"));
      s.cache = holder->tier.get();
      s.cfg.tier = holder->tier.get();
    }
    observe_rig(*holder->rig, dseed, trace, s.cfg);
    if (repro_fault_plan() != nullptr) {
      // Scripted faults per domain: the plan syntax was validated up front
      // (print_header); the domain seed feeds the plan's RNG so
      // seeded-random corruption picks differ (but are fixed) per domain.
      holder->fault = std::make_unique<fault::FaultInjector>(
          fault::FaultPlan::parse_or_die(repro_fault_plan(), dseed));
      holder->fault->attach_ssds(holder->rig->ssd_ptrs());
      holder->fault->attach_primary(holder->rig->primary.get());

      raid::RebuildConfig rbc;
      rbc.mbps = knob_num("REPRO_REBUILD_MBPS");
      rbc.spares = static_cast<u32>(knob_num("REPRO_REBUILD_SPARES"));
      holder->rebuild =
          std::make_unique<raid::RebuildManager>(rbc, holder->rig->ssd_ptrs());
      src::wire_faults(*holder->rig->cache, *holder->fault,
                       holder->rebuild.get());
      if (holder->rig->spans)
        holder->rebuild->set_span(holder->rig->spans.get());
      if (holder->tier) {
        // DRAM vanishes at a power cut: dirty tier blocks are counted lost
        // and ledgered as injected+detected data loss, never silently
        // dropped (tier::TierCache::on_power_cut).
        holder->tier->set_fault_ledger(&holder->fault->ledger());
        tier::TierCache* tcache = holder->tier.get();
        holder->fault->set_powercut_callback(
            [tcache](sim::SimTime t) { tcache->on_power_cut(t); });
      }
      s.cfg.fault = holder->fault.get();
      s.cfg.rebuild = holder->rebuild.get();
    }
    s.owned = holder;
    return s;
  }};
}

// One trace group replayed over Bcache5 or Flashcache5, partitioned like
// src_cell. Spans (REPRO_SPAN_SAMPLE) come from each domain's RAID layer
// and SSDs; baselines have no provenance ledger.
inline Cell baseline_cell(std::string name, Baseline kind,
                          const flash::SsdSpec& spec,
                          workload::TraceGroup group, double k) {
  const double dk = k / kEngineDomains;
  return {std::move(name), kEngineDomains, false,
          [=](u32, u64 dseed, bool) {
    auto holder = std::make_shared<Domain<BaselineRig>>();
    holder->rig = make_baseline_rig(kind, spec, dk);
    engine::DomainSetup s = replay_domain(*holder, group, dseed);
    s.cfg.spans = attach_spans(*holder->rig, *holder->rig->raid, dseed);
    s.owned = holder;
    return s;
  }};
}

// Fig. 1 and Table 2's FIO load: 4 threads x iodepth 32 of 4 KiB uniform-
// random writes over `span_blocks`, seeded by `seed`, against the single
// stack `make_rig` builds (one domain).
inline Cell fio_cell(std::string name, u64 seed, u64 span_blocks,
                     std::function<std::unique_ptr<BaselineRig>()> make_rig) {
  return {std::move(name), 1, false, [=](u32, u64, bool) {
    auto holder = std::make_shared<Domain<BaselineRig>>();
    holder->rig = make_rig();
    workload::FioGen::Config fc;
    fc.span_blocks = span_blocks;
    fc.req_blocks = 1;
    fc.read_pct = 0;
    fc.seed = seed;
    holder->fio = std::make_unique<workload::FioGen>(fc);
    engine::DomainSetup s =
        domain_over(*holder->rig, {holder->fio.get()}, 4, 32);
    s.owned = holder;
    return s;
  }};
}

// A sweep's outcome: each cell's run in declaration order, the engine job
// (for its wall-clock side), and the REPRO_TRACE domain's tracer.
struct Sweep {
  std::vector<workload::RunResult> runs;
  engine::EngineResult engine;
  std::shared_ptr<const obs::SpanTracer> traced;
};

// Runs every cell in one ParallelEngine job on `threads` workers (0 =
// min(domains, hardware threads)); cell c owns global domains [first[c],
// first[c + 1]). Every domain is its own lane, so the pool hands domains to
// threads as they free up and a heavy cell spreads over all of them. Each
// cell comes out exactly as if it ran alone: it is live through the first
// barrier at which all its domains have finished (or the window ends), and
// only live cells are counted (engine.epochs), pumped and judged, so
// nothing touches a cell after it stops.
inline Sweep run_sweep(u32 threads, const std::vector<Cell>& cells) {
  std::vector<u32> first = {0};
  size_t traced_cell = cells.size();
  for (size_t c = 0; c < cells.size(); ++c) {
    first.push_back(first.back() + cells[c].domains);
    if (cells[c].traceable && repro_trace_path() != nullptr) traced_cell = c;
  }

  // Unset REPRO_SLO_* targets stay disarmed; with none armed there is no
  // watchdog at all.
  obs::SloPolicy policy;
  policy.min_throughput_mbps = knob_num("REPRO_SLO_MBPS");
  policy.max_read_p99_ms = knob_num("REPRO_SLO_READ_P99_MS");
  policy.max_write_p99_ms = knob_num("REPRO_SLO_WRITE_P99_MS");
  if (knob_text("REPRO_SLO_MAX_DEGRADED") != nullptr)
    policy.max_degraded_domains =
        static_cast<i32>(knob_num("REPRO_SLO_MAX_DEGRADED"));
  policy.error_budget = knob_num("REPRO_SLO_BUDGET");
  std::vector<obs::SloWatchdog> watchdogs;
  if (policy.any()) watchdogs.assign(cells.size(), obs::SloWatchdog(policy));

  // At each barrier, per live cell: pump its domains' rebuilds, so
  // rate-limited reconstruction advances through op-sparse stretches too
  // (pump(now) is monotone and idempotent); feed its watchdog the post-pump
  // exact sums; retire it once all its domains have finished. All of it is
  // a deterministic function of quiescent domain state, as the engine
  // contract requires.
  std::vector<u32> epochs(cells.size(), 0);
  std::vector<bool> live(cells.size(), true);
  engine::ParallelEngine eng({first.back(), threads});
  eng.add_epoch_hook([&](const engine::EpochView& v) {
    for (size_t c = 0; c < cells.size(); ++c) {
      if (!live[c]) continue;
      ++epochs[c];
      u64 ops = 0, bytes = 0;
      common::Histogram reads, writes;
      u32 degraded = 0;
      bool done = true;
      for (u32 d = first[c]; d < first[c + 1]; ++d) {
        const engine::ShardDomain& dom = *(*v.domains)[d];
        raid::RebuildManager* mgr = dom.config().rebuild;
        if (mgr != nullptr) mgr->pump(dom.window_start() + v.rel_end);
        done = done && dom.finished();
        ops += dom.ops();
        bytes += dom.bytes();
        reads.merge(dom.latency().reads());
        writes.merge(dom.latency().writes());
        // A domain mid-rebuild is degraded too: the replacement is
        // installed but still serves reconstructed reads until the copy
        // completes.
        bool any_degraded = mgr != nullptr && mgr->rebuilding();
        for (const blockdev::BlockDevice* dev : dom.ssds())
          any_degraded = any_degraded || dev->failed();
        if (any_degraded) ++degraded;
      }
      if (!watchdogs.empty())
        watchdogs[c].observe_epoch(v.rel_end, ops, bytes, reads, writes,
                                   degraded);
      live[c] = !done;
    }
  });

  Sweep sw;
  sw.engine = eng.run(first.back(), [&](u32 index, u32) {
    const size_t c =
        std::upper_bound(first.begin(), first.end(), index) - first.begin() - 1;
    const u32 local = index - first[c];
    const bool trace = c == traced_cell && local == 0;
    engine::DomainSetup s =
        cells[c].build(local, domain_seed(42, local), trace);
    if (trace) sw.traced = {s.owned, s.cfg.spans};
    return s;
  });

  const auto& parts = sw.engine.per_domain;
  for (size_t c = 0; c < cells.size(); ++c) {
    const std::vector<workload::RunResult> mine(parts.begin() + first[c],
                                                parts.begin() + first[c + 1]);
    workload::RunResult r = engine::merge_results(mine);
    r.engine = {true, cells[c].domains, epochs[c], {}};
    for (const workload::RunResult& p : mine)
      r.engine.per_domain.push_back({p.ops, p.bytes});
    // The verdicts are properties of the whole cell at each barrier.
    if (!watchdogs.empty()) r.slo = watchdogs[c].outcome();
    sw.runs.push_back(std::move(r));
  }
  return sw;
}

// A bench's one engine job on REPRO_THREADS workers: one [engine] line and
// one REPRO_JSON "perf" record for the job, an [slo] line per judged cell,
// each cell's run reported in declaration order, then the REPRO_TRACE file.
// Returns the cells' runs in declaration order.
inline std::vector<workload::RunResult> run_sweep(
    const char* bench, const std::vector<Cell>& cells) {
  Sweep sw = run_sweep(static_cast<u32>(knob_num("REPRO_THREADS")), cells);
  const engine::EngineResult& er = sw.engine;

  std::printf(
      "[engine] %s: cells=%zu domains=%u threads=%u epochs=%u wall=%.2fs "
      "sim-ops/s=%.0f\n",
      bench, cells.size(), er.domains, er.threads, er.epochs, er.wall_seconds,
      er.sim_ops_per_sec);
  if (repro_json_path() != nullptr) {
    json_report().set_perf_config(er.threads);
    std::vector<workload::PerfShard> domains;
    for (const engine::ShardPerf& sp : er.per_shard)
      domains.push_back({sp.ops, sp.wall_seconds});
    json_report().add_perf({bench, static_cast<u32>(cells.size()),
                            er.wall_seconds, er.sim_ops_per_sec,
                            std::move(domains)});
  }
  for (size_t c = 0; c < cells.size(); ++c) {
    const obs::SloOutcome& slo = sw.runs[c].slo;
    if (slo.active)
      std::printf("[slo] %s: epochs=%u violations=%u burn=%.2f %s\n",
                  cells[c].name.c_str(), slo.epochs, slo.violations,
                  slo.burn_rate, slo.breached ? "BREACHED" : "ok");
    report_run(bench, cells[c].name, sw.runs[c]);
  }
  if (sw.traced) write_chrome_trace(*sw.traced);
  return std::move(sw.runs);
}

// Adds one row per trace group to a group-by-variant table: the group, then
// "<MB/s> (<I/O amp>)" for each of its runs (`runs` holds every group's
// runs, in kTraceGroups order), then the row's `tails` entries, if any.
inline void add_group_rows(common::Table& t,
                           const std::vector<workload::RunResult>& runs,
                           const std::vector<std::vector<std::string>>& tails =
                               {}) {
  const size_t per = runs.size() / std::size(kTraceGroups);
  for (size_t g = 0; g < std::size(kTraceGroups); ++g) {
    std::vector<std::string> row = {workload::to_string(kTraceGroups[g])};
    for (size_t i = g * per; i < (g + 1) * per; ++i)
      row.push_back(common::Table::num(runs[i].throughput_mbps, 0) + " (" +
                    common::Table::num(runs[i].io_amplification, 2) + ")");
    if (g < tails.size())
      row.insert(row.end(), tails[g].begin(), tails[g].end());
    t.add_row(std::move(row));
  }
}

// Refuses to run (exit 2) on any invalid REPRO_* knob, then prints the
// experiment banner and every knob set in the environment.
inline void print_header(const char* experiment, const char* paper_ref) {
  const KnobSet& ks = knobs();
  if (!ks.error.empty()) {
    std::fprintf(stderr, "%s\n", ks.error.c_str());
    std::exit(2);
  }
  std::printf("=== %s ===\nreproduces: %s\nknobs:", experiment, paper_ref);
  for (size_t i = 0; i < kKnobs.size(); ++i) {
    if (!ks.v[i].set) continue;
    const std::string& t = ks.v[i].text;
    const char* q = t.find(' ') == std::string::npos ? "" : "\"";
    std::printf(" %s=%s%s%s", kKnobs[i].name, q, t.c_str(), q);
  }
  std::printf(" (unset knobs at their defaults)\n\n");
}

}  // namespace srcache::bench
