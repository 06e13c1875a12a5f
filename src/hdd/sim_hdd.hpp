// SimHdd: a mechanical disk model — one arm, positioning cost for
// non-sequential access, streaming transfer rate. Eight of these in RAID-10
// behind a 1 Gbps link form the paper's primary storage (Table 1).
#pragma once

#include "block/sim_device.hpp"
#include "sim/timeline.hpp"

namespace srcache::hdd {

using sim::SimTime;

struct HddConfig {
  u64 capacity_bytes = 64 * GiB;  // scaled stand-in for a 2 TB spindle
  sim::SimTime command_overhead = 200 * sim::kUs;
  bool track_content = true;
};

class SimHdd final : public blockdev::SimDevice {
 public:
  explicit SimHdd(const HddConfig& cfg);

  // Background ops (destage sweeps) yield to foreground ones on the arm.
  void set_background(bool background) override { background_ = background; }

  // Cumulative arm service time (seek + rotation + transfer), for per-disk
  // utilization attribution by the observability layer.
  [[nodiscard]] SimTime arm_busy_time() const { return arm_.busy_time(); }

 private:
  // Reads and writes position the arm and stream; a flush drains the
  // on-disk write cache (waits for the arm); a trim costs one command.
  SimTime service(blockdev::DeviceOp op, SimTime now, u64 lba, u64 n) override;

  HddConfig cfg_;
  sim::PriorityTimeline arm_;
  u64 head_pos_ = 0;  // LBA after the last access (sequentiality detection)
  bool background_ = false;
};

}  // namespace srcache::hdd
