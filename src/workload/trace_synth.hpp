// Synthetic equivalents of the paper's trace sets (Table 6).
//
// The real MSR-Cambridge / Microsoft-Production-Server traces are not
// redistributable with this repository, so each trace is replaced by a
// generator matching the row's reported characteristics: mean request size,
// I/O-volume share (which sets its footprint share), and read ratio —
// with Zipfian spatial skew and short sequential runs, the two robust
// properties of these server traces. DESIGN.md documents the substitution.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workload/generators.hpp"

namespace srcache::workload {

enum class TraceGroup { kWrite, kMixed, kRead };

const char* to_string(TraceGroup g);

// One Table 6 row.
struct TraceSpec {
  const char* name;
  double avg_req_kb;   // mean request size
  double size_gb;      // trace I/O volume (drives the footprint share)
  int read_pct;        // read ratio
};

// The Table 6 rows of one group, in paper order.
const std::vector<TraceSpec>& traces_in_group(TraceGroup g);

// Generator for one trace: Zipf-skewed placement over a private footprint
// region, geometric request sizes around the trace mean, sequential-run
// probability, read/write mix per the spec.
class TraceSynth final : public Generator {
 public:
  struct Config {
    TraceSpec spec{};
    u64 footprint_blocks = 0;
    u64 offset_blocks = 0;
    // Spatial skew. MSR-class server traces are strongly concentrated; a
    // theta slightly above 1 reproduces their ~80-90% hit ratios against a
    // cache ~1/3 the footprint (Fig. 7(c)).
    double zipf_theta = 1.1;
    double seq_prob = 0.6;  // chance to continue the previous run
    // Hotness is drawn per *extent*, not per block: server traces touch
    // files/objects, so hot blocks cluster spatially. This is what makes
    // sorted destage sweeps to the HDD array effective.
    u64 extent_blocks = 32;  // 128 KiB
    u64 seed = 1;
    u32 tenant = 0;
    // Per-block compressibility distribution (see comp_pct_for). Server
    // traces differ widely in content — make_trace_set spreads the means
    // across rows so a trace group mixes well- and poorly-compressing data.
    u32 comp_mean_pct = 60;
    u32 comp_jitter_pct = 30;
  };

  explicit TraceSynth(const Config& cfg);

  Op next() override;
  [[nodiscard]] const char* name() const override { return cfg_.spec.name; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  [[nodiscard]] u32 sample_req_blocks();

  Config cfg_;
  common::Xoshiro256 rng_;
  common::ZipfSampler zipf_;
  u64 last_end_ = 0;
  double mean_blocks_;
  // log(1 - 1 / mean_blocks_), the geometric size draw's denominator.
  double log_continue_;
  double read_prob_;  // spec.read_pct / 100
};

// A whole trace group laid out over one primary-storage LBA space: each
// trace gets a footprint proportional to its I/O-volume share, summing to
// `total_footprint_bytes` (the paper sizes each group's working set at
// roughly 50 GB against an 18 GB cache).
struct TraceSet {
  std::vector<std::unique_ptr<TraceSynth>> traces;
  u64 total_blocks = 0;

  [[nodiscard]] std::vector<Generator*> generators() const;
};

// `tenant` tags every trace in the set (the whole group acts as one tenant
// in multi-tenant runs; single-tenant callers keep the default 0).
TraceSet make_trace_set(TraceGroup g, u64 total_footprint_bytes, u64 seed,
                        u32 tenant = 0);

}  // namespace srcache::workload
