#include "workload/trace_synth.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace srcache::workload {

const char* to_string(TraceGroup g) {
  switch (g) {
    case TraceGroup::kWrite: return "Write";
    case TraceGroup::kMixed: return "Mixed";
    case TraceGroup::kRead: return "Read";
  }
  return "?";
}

const std::vector<TraceSpec>& traces_in_group(TraceGroup g) {
  // Table 6 of the paper, verbatim.
  static const std::vector<TraceSpec> kWrite = {
      {"prxy0", 7.07, 84.44, 3},   {"exch9", 21.06, 110.46, 31},
      {"mds0", 9.59, 11.08, 29},   {"mds1", 9.59, 11.08, 29},
      {"stg0", 11.95, 23.16, 31},  {"msn0", 21.73, 31.28, 6},
      {"msn1", 17.84, 37.80, 44},  {"src12", 29.25, 53.23, 16},
      {"src20", 7.59, 11.28, 12},  {"src22", 56.31, 62.12, 36},
  };
  static const std::vector<TraceSpec> kMixed = {
      {"rsrch0", 9.07, 12.41, 11}, {"exch5", 18.02, 85.628, 31},
      {"hm0", 8.88, 33.84, 32},    {"fin0", 6.86, 34.91, 19},
      {"web0", 15.29, 29.60, 58},  {"prn0", 12.53, 66.79, 19},
      {"msn4", 21.73, 31.28, 6},
  };
  static const std::vector<TraceSpec> kRead = {
      {"ts0", 9.28, 15.95, 26},   {"usr0", 22.81, 48.694, 72},
      {"proj3", 9.75, 20.87, 87}, {"src21", 59.31, 37.20, 99},
      {"msn5", 10.01, 124.0, 75},
  };
  switch (g) {
    case TraceGroup::kWrite: return kWrite;
    case TraceGroup::kMixed: return kMixed;
    case TraceGroup::kRead: return kRead;
  }
  return kWrite;
}

TraceSynth::TraceSynth(const Config& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      zipf_(std::max<u64>(1, cfg.footprint_blocks /
                                 std::max<u64>(1, cfg.extent_blocks)),
            cfg.zipf_theta, cfg.seed ^ 0x5eed),
      mean_blocks_(std::max(1.0, cfg.spec.avg_req_kb / 4.0)),
      log_continue_(std::log(1.0 - 1.0 / mean_blocks_)),
      read_prob_(static_cast<double>(cfg.spec.read_pct) / 100.0) {
  if (cfg_.footprint_blocks == 0)
    throw std::invalid_argument("TraceSynth: empty footprint");
  if (cfg_.extent_blocks == 0) cfg_.extent_blocks = 1;
}

u32 TraceSynth::sample_req_blocks() {
  // Geometric with the trace's mean, capped at 1 MiB (256 blocks) — server
  // traces are dominated by small requests with a heavy-ish tail.
  if (mean_blocks_ <= 1.0) return 1;
  const double u = std::max(1e-12, rng_.uniform());
  const auto k = 1 + static_cast<u32>(std::log(u) / log_continue_);
  return std::min<u32>(std::max<u32>(k, 1), 256);
}

Op TraceSynth::next() {
  Op op;
  op.tenant = cfg_.tenant;
  op.is_write = !rng_.chance(read_prob_);
  op.nblocks = sample_req_blocks();

  u64 lba;
  if (last_end_ != 0 && rng_.chance(cfg_.seq_prob)) {
    lba = last_end_;  // continue the sequential run
  } else {
    // Zipf rank -> scattered extent: a multiplicative-hash permutation
    // keeps the hot set spread over the footprint instead of packed at
    // offset 0; the request starts somewhere inside the extent.
    const u64 extents = zipf_.n();
    const u64 rank = zipf_.next();
    const u64 extent = (rank * 0x9E3779B97F4A7C15ull) % extents;
    lba = extent * cfg_.extent_blocks + rng_.below(cfg_.extent_blocks);
    if (lba >= cfg_.footprint_blocks) lba %= cfg_.footprint_blocks;
  }
  if (lba + op.nblocks > cfg_.footprint_blocks) {
    lba = cfg_.footprint_blocks - op.nblocks;
  }
  last_end_ = lba + op.nblocks >= cfg_.footprint_blocks ? 0 : lba + op.nblocks;
  op.lba = cfg_.offset_blocks + lba;
  op.comp_pct = comp_pct_for(op.lba, cfg_.comp_mean_pct, cfg_.comp_jitter_pct);
  return op;
}

std::vector<Generator*> TraceSet::generators() const {
  std::vector<Generator*> out;
  out.reserve(traces.size());
  for (const auto& t : traces) out.push_back(t.get());
  return out;
}

TraceSet make_trace_set(TraceGroup g, u64 total_footprint_bytes, u64 seed,
                        u32 tenant) {
  const auto& specs = traces_in_group(g);
  double volume = 0.0;
  for (const auto& s : specs) volume += s.size_gb;

  TraceSet set;
  common::SplitMix64 seeder(seed);
  u64 offset = 0;
  u32 row = 0;
  for (const auto& s : specs) {
    TraceSynth::Config cfg;
    cfg.spec = s;
    // Spread content compressibility across the group's rows (fixed per
    // row, independent of the run seed): means walk 40..80 so every group
    // mixes DRAM-friendly and near-incompressible traces.
    cfg.comp_mean_pct = 40 + (row * 13) % 41;
    cfg.comp_jitter_pct = 25;
    row++;
    cfg.footprint_blocks = std::max<u64>(
        256, static_cast<u64>(static_cast<double>(total_footprint_bytes) *
                              (s.size_gb / volume)) /
                 kBlockSize);
    cfg.offset_blocks = offset;
    cfg.seed = seeder.next();
    cfg.tenant = tenant;
    offset += cfg.footprint_blocks;
    set.traces.push_back(std::make_unique<TraceSynth>(cfg));
  }
  set.total_blocks = offset;
  return set;
}

}  // namespace srcache::workload
