// Table 6: characteristics of the synthetic trace sets. The synthesizer is
// configured from the paper's Table 6 rows; this bench verifies (by
// sampling) that the generated streams match the targets, then replays each
// group against the SRC stack and reports throughput plus end-to-end latency
// percentiles (machine-readable via REPRO_JSON).
#include "harness.hpp"

using namespace srcache;
using namespace srcache::bench;

int main() {
  print_header("Table 6: trace set characteristics (synthetic equivalents)",
               "Table 6");
  common::Table t({"Set", "Trace", "target KB", "measured KB", "target R%",
                   "measured R%", "footprint MiB"});
  const double k = scale();
  for (auto group : kTraceGroups) {
    workload::TraceSet set = workload::make_trace_set(
        group, Geometry::at(k).group_footprint_bytes, 1);
    for (const auto& tr : set.traces) {
      double blocks = 0;
      int reads = 0;
      const int n = 20000;
      workload::TraceSynth probe(tr->config());
      for (int i = 0; i < n; ++i) {
        const auto op = probe.next();
        blocks += op.nblocks;
        reads += op.is_write ? 0 : 1;
      }
      t.add_row({workload::to_string(group), tr->config().spec.name,
                 common::Table::num(tr->config().spec.avg_req_kb, 2),
                 common::Table::num(blocks / n * 4.0, 2),
                 std::to_string(tr->config().spec.read_pct),
                 common::Table::num(100.0 * reads / n, 0),
                 common::Table::num(
                     static_cast<double>(blocks_to_bytes(
                         tr->config().footprint_blocks)) / (1 << 20),
                     0)});
    }
  }
  t.print();

  // Measured replay: the three groups run as one sweep, each split into
  // kEngineDomains independent array slices (bit-identical across
  // REPRO_SHARDS/REPRO_THREADS); run_sweep also writes REPRO_JSON.
  std::printf("\nmeasured replay against the SRC stack (%u domains):\n",
              kEngineDomains);
  std::vector<Cell> cells;
  for (auto group : kTraceGroups)
    cells.push_back(src_cell(workload::to_string(group), default_src_config(),
                             flash::spec_840pro_128(), group, k));
  const auto runs = run_sweep("bench_table6_traces", cells);

  common::Table m({"Set", "MB/s", "IOA", "hit", "r p50us", "r p95us",
                   "r p99us", "w p50us", "w p95us", "w p99us"});
  for (size_t g = 0; g < runs.size(); ++g) {
    const workload::RunResult& res = runs[g];
    m.add_row({workload::to_string(kTraceGroups[g]),
               common::Table::num(res.throughput_mbps, 1),
               common::Table::num(res.io_amplification, 2),
               common::Table::num(res.hit_ratio, 3),
               common::Table::num(res.read_lat.p50 / 1e3, 1),
               common::Table::num(res.read_lat.p95 / 1e3, 1),
               common::Table::num(res.read_lat.p99 / 1e3, 1),
               common::Table::num(res.write_lat.p50 / 1e3, 1),
               common::Table::num(res.write_lat.p95 / 1e3, 1),
               common::Table::num(res.write_lat.p99 / 1e3, 1)});
  }
  m.print();
  return 0;
}
