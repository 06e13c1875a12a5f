// SimSsd: a timing-accurate simulated SATA/NVMe SSD.
//
// Composition (all contention via sim timelines):
//   host command  ->  controller (per-command overhead, 1..k lanes)
//                 ->  host interface (shared bandwidth pipe)
//                 ->  DRAM write buffer (writes ack here; drains to NAND)
//                 ->  NAND (units parallel dies; FTL decides placement & GC)
//
// Reproduces the three device behaviours the paper's design leans on:
//  * flush is expensive — it drains the write buffer and stalls the
//    controller for a barrier period (Table 3);
//  * small random overwrites trigger internal GC and collapse sustained
//    bandwidth, large erase-group-aligned writes do not (Fig. 2);
//  * the host interface caps reads (SATA vs NVMe price/perf split, §3.3).
#pragma once

#include "block/sim_device.hpp"
#include "flash/ftl.hpp"
#include "flash/ssd_specs.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/timeline.hpp"
#include "sim/write_back_buffer.hpp"

namespace srcache::flash {

using sim::SimTime;

class SimSsd final : public blockdev::SimDevice {
 public:
  // `track_content` disables the per-block tag store for large perf-only
  // runs (reads then report tag 0).
  explicit SimSsd(const SsdSpec& spec, bool track_content = true);

  [[nodiscard]] const SsdSpec& spec() const { return spec_; }
  [[nodiscard]] const Ftl& ftl() const { return ftl_; }

  // The replacement drive also arrives with a fresh FTL and an empty write
  // buffer.
  void replace_media() override;

  // Fills the whole exported LBA space with dummy data, then resets timing
  // and statistics — the paper's preconditioning step (§5.1) that brings the
  // FTL to steady state before measuring.
  void precondition();

  // Resets time, stats and the write buffer but keeps FTL occupancy/wear.
  void reset_timing();

  // Registers pull-style observability metrics (FTL GC/erase/WA counters,
  // device I/O counters, resource busy times) under `scope`, e.g. "ssd.0".
  // The callbacks read this device; it must outlive the registry's snapshots.
  void register_metrics(const obs::Scope& scope);

  // Attaches an op-span tracer (nullptr detaches). When the ambient op is
  // sampled, reads/writes contribute "ssd.read"/"ssd.write" spans with
  // NAND-phase children, labelled with this device's array index; internal
  // GC and flushes go to the timeline on lane kLaneSsdBase + dev.
  void set_span(obs::SpanTracer* tracer, u32 dev) {
    span_ = tracer;
    span_dev_ = dev;
  }

 private:
  SimTime service(blockdev::DeviceOp op, SimTime now, u64 lba, u64 n) override;
  SimTime read_time(SimTime now, u64 lba, u64 n);
  SimTime write_time(SimTime now, u64 lba, u64 n);
  SimTime flush_time(SimTime now);
  // Applies FTL-reported NAND work to the die servers; returns completion.
  SimTime charge_nand(SimTime start, const NandOps& ops);

  SsdSpec spec_;
  Ftl ftl_;

  sim::MultiServer controller_;
  sim::BandwidthPipe interface_;
  sim::MultiServer nand_;
  // DRAM write buffer: writes ack once admitted and drain to NAND.
  sim::WriteBackBuffer buffer_;

  obs::SpanTracer* span_ = nullptr;
  u32 span_dev_ = 0;
};

}  // namespace srcache::flash
