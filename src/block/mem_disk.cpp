#include "block/mem_disk.hpp"

#include <stdexcept>

namespace srcache::blockdev {

MemDisk::MemDisk(const MemDiskConfig& cfg)
    : SimDevice(cfg.capacity_blocks, cfg.track_content), cfg_(cfg) {
  if (cfg_.capacity_blocks == 0) {
    throw std::invalid_argument("MemDisk capacity must be > 0");
  }
}

SimTime MemDisk::service(DeviceOp op, SimTime now, u64 /*lba*/, u64 n) {
  if (op == DeviceOp::kFlush) return line_.submit(now, cfg_.flush_latency);
  if (op == DeviceOp::kTrim) return line_.submit(now, cfg_.op_latency);
  SimTime service = cfg_.op_latency + sim::transfer_time(blocks_to_bytes(n),
                                                        cfg_.bandwidth_mbps);
  if (now < degrade_until_ && degrade_factor_ > 1.0) {
    service =
        static_cast<SimTime>(static_cast<double>(service) * degrade_factor_);
  }
  return line_.submit(now, service);
}

}  // namespace srcache::blockdev
