// MemDisk: an idealized constant-latency, bandwidth-limited block device.
// Used as a test double and as the "infinitely good" device in ablations.
#pragma once

#include "block/sim_device.hpp"
#include "sim/timeline.hpp"

namespace srcache::blockdev {

struct MemDiskConfig {
  u64 capacity_blocks = 1 * GiB / kBlockSize;
  SimTime op_latency = 10 * sim::kUs;
  double bandwidth_mbps = 1000.0;
  SimTime flush_latency = 100 * sim::kUs;
  bool track_content = true;
};

class MemDisk final : public SimDevice {
 public:
  explicit MemDisk(const MemDiskConfig& cfg);

  void degrade_service(double factor, SimTime until) override {
    degrade_factor_ = factor;
    degrade_until_ = until;
  }

 private:
  // Reads and writes pay latency plus transfer, stretched while degraded;
  // flushes and trims pay a fixed latency.
  SimTime service(DeviceOp op, SimTime now, u64 lba, u64 n) override;

  MemDiskConfig cfg_;
  sim::ServiceTimeline line_;
  double degrade_factor_ = 1.0;
  SimTime degrade_until_ = 0;
};

}  // namespace srcache::blockdev
