#include "flash/sim_ssd.hpp"

#include <algorithm>

namespace srcache::flash {

using blockdev::DeviceOp;

namespace {
FtlConfig make_ftl_config(const SsdSpec& spec) {
  FtlConfig cfg;
  cfg.units = spec.units;
  cfg.pages_per_block = spec.pages_per_block;
  cfg.exported_pages = spec.capacity_bytes / kBlockSize;
  cfg.ops_fraction = spec.ops_fraction;
  return cfg;
}
}  // namespace

SimSsd::SimSsd(const SsdSpec& spec, bool track_content)
    : SimDevice(spec.capacity_bytes / kBlockSize, track_content),
      spec_(spec),
      ftl_(make_ftl_config(spec)),
      controller_(spec.controller_lanes),
      interface_(spec.interface_mbps),
      nand_(spec.units),
      buffer_(spec.write_buffer_bytes) {}

SimTime SimSsd::charge_nand(SimTime start, const NandOps& ops) {
  SimTime done = start;
  const auto charge = [&](u64 count, SimTime per_op) {
    if (count > 0)
      done = std::max(done, nand_.submit_batch(start, count, per_op));
  };
  charge(ops.gc_reads, spec_.read_latency);
  charge(ops.programs, spec_.program_latency);
  charge(ops.erases, spec_.erase_latency);
  return done;
}

SimTime SimSsd::service(DeviceOp op, SimTime now, u64 lba, u64 n) {
  switch (op) {
    case DeviceOp::kRead:
      return read_time(now, lba, n);
    case DeviceOp::kWrite:
    case DeviceOp::kWritePayload:
      return write_time(now, lba, n);
    case DeviceOp::kFlush:
      return flush_time(now);
    case DeviceOp::kTrim:
      break;
  }
  const SimTime done = controller_.submit(now, spec_.command_overhead);
  ftl_.trim(lba, n);
  return done;
}

SimTime SimSsd::read_time(SimTime now, u64 lba, u64 n) {
  const SimTime t_ctrl = controller_.submit(now, spec_.command_overhead);
  // Unmapped pages read as zeroes without NAND work.
  const u64 mapped = ftl_.mapped_count(lba, n);
  const SimTime t_nand = nand_.submit_batch(t_ctrl, mapped, spec_.read_latency);
  const SimTime done = interface_.transfer(std::max(t_ctrl, t_nand),
                                           blocks_to_bytes(n));
  if (span_ != nullptr && span_->sampling()) {
    const u32 s = span_->begin_span("ssd.read", now, span_dev_);
    if (s != obs::kNoSpan) {
      if (mapped > 0) {
        const u32 ns = span_->begin_span("nand.read", t_ctrl, span_dev_);
        if (ns != obs::kNoSpan) span_->end_span(ns, t_nand, mapped);
      }
      span_->end_span(s, done, n);
    }
  }
  return done;
}

SimTime SimSsd::write_time(SimTime now, u64 lba, u64 n) {
  const SimTime t_ctrl = controller_.submit(now, spec_.command_overhead);
  const SimTime t_iface = interface_.transfer(t_ctrl, blocks_to_bytes(n));
  const NandOps ops = ftl_.write_range(lba, n);
  const SimTime nand_done = charge_nand(t_iface, ops);
  const SimTime done = buffer_.admit(t_iface, blocks_to_bytes(n), nand_done);
  if (span_ == nullptr) return done;
  if (ops.gc_reads > 0 || ops.erases > 0)
    span_->event("ssd.gc", obs::kLaneSsdBase + span_dev_, t_iface, nand_done,
                 ops.erases);
  if (span_->sampling()) {
    const u32 s = span_->begin_span("ssd.write", now, span_dev_);
    if (s != obs::kNoSpan) {
      if (ops.programs > 0) {
        const u32 ns = span_->begin_span("nand.program", t_iface, span_dev_);
        if (ns != obs::kNoSpan) span_->end_span(ns, nand_done, ops.programs);
      }
      span_->end_span(s, done, n);
    }
  }
  return done;
}

SimTime SimSsd::flush_time(SimTime now) {
  // Drain: every buffered write must reach NAND; then a fixed barrier while
  // the controller persists its mapping state. The controller is occupied
  // for the whole period, so queued reads/writes stall behind the flush.
  const SimTime service = (buffer_.drain(now) - now) + spec_.flush_barrier;
  SimTime done = now;
  for (int lane = 0; lane < controller_.units(); ++lane)
    done = std::max(done, controller_.submit(now, service));
  if (span_ != nullptr)
    span_->event("ssd.flush", obs::kLaneSsdBase + span_dev_, now, done);
  return done;
}

void SimSsd::register_metrics(const obs::Scope& scope) {
  register_counters(scope, stats(), blockdev::kDeviceStatsFields);
  scope.counter_fn("gc.pages_copied",
                   [this] { return ftl_.stats().gc_pages_copied; });
  scope.counter_fn("gc.erases", [this] { return ftl_.stats().blocks_erased; });
  scope.counter_fn("host_pages_written",
                   [this] { return ftl_.stats().host_pages_written; });
  scope.counter_fn("pages_programmed",
                   [this] { return ftl_.stats().total_pages_programmed; });
  scope.counter_fn("nand_busy_ns",
                   [this] { return static_cast<u64>(nand_.busy_time()); });
  scope.counter_fn("controller_busy_ns", [this] {
    return static_cast<u64>(controller_.busy_time());
  });
  scope.counter_fn("interface_busy_ns", [this] {
    return static_cast<u64>(interface_.busy_time());
  });
  // Unit counts let the time-series sampler normalize busy-time deltas into
  // 0..1 utilizations ("util.ssd.N.nand" etc.); per-die busy counters expose
  // placement skew that the aggregate hides.
  scope.gauge_fn("nand_units",
                 [this] { return static_cast<double>(nand_.units()); });
  scope.gauge_fn("controller_units",
                 [this] { return static_cast<double>(controller_.units()); });
  for (int die = 0; die < nand_.units(); ++die) {
    scope.counter_fn("nand.die." + std::to_string(die) + ".busy_ns",
                     [this, die] {
                       return static_cast<u64>(
                           nand_.busy_time(static_cast<size_t>(die)));
                     });
  }
  scope.gauge_fn("write_amplification",
                 [this] { return ftl_.stats().write_amplification(); });
  scope.gauge_fn("write_buffer_bytes",
                 [this] { return static_cast<double>(buffer_.bytes()); });
  scope.gauge_fn("media_error_blocks",
                 [this] { return static_cast<double>(media_error_blocks()); });
}

void SimSsd::precondition() {
  ftl_.write_range(0, capacity_blocks());
  reset_timing();
}

void SimSsd::replace_media() {
  // Cumulative I/O stats survive the swap, so provenance balances against
  // cumulative write_blocks across it.
  SimDevice::replace_media();
  ftl_ = Ftl(ftl_.config());
  buffer_.clear();
}

void SimSsd::reset_timing() {
  controller_.reset();
  interface_.reset();
  nand_.reset();
  buffer_.clear();
  reset_stats();
}

}  // namespace srcache::flash
