#include "hdd/sim_hdd.hpp"

#include <cmath>
#include <stdexcept>

namespace srcache::hdd {

using blockdev::DeviceOp;

constexpr double kTransferMbps = 150.0;     // media streaming rate
constexpr SimTime kAvgSeek = 8 * sim::kMs;  // 7.2K RPM class
// Half a revolution at 7200 rpm.
constexpr SimTime kAvgRotation = 4170 * sim::kUs;

SimHdd::SimHdd(const HddConfig& cfg)
    : SimDevice(cfg.capacity_bytes / kBlockSize, cfg.track_content),
      cfg_(cfg) {
  if (capacity_blocks() == 0)
    throw std::invalid_argument("SimHdd capacity too small");
}

SimTime SimHdd::service(DeviceOp op, SimTime now, u64 lba, u64 n) {
  if (op == DeviceOp::kFlush) return arm_.submit(now, 0, background_);
  if (op == DeviceOp::kTrim) return now + cfg_.command_overhead;
  SimTime service = cfg_.command_overhead +
                    sim::transfer_time(blocks_to_bytes(n), kTransferMbps);
  if (lba != head_pos_) {
    // Positioning: seek distance scales the seek time down to a
    // track-to-track floor, plus rotational delay. Background batches
    // (elevator-sorted destage sweeps) see rotational-position-ordered
    // scheduling: half the average rotational latency.
    const u64 gap = lba > head_pos_ ? lba - head_pos_ : head_pos_ - lba;
    const double dist =
        static_cast<double>(gap) / static_cast<double>(capacity_blocks());
    const auto seek = static_cast<SimTime>(
        static_cast<double>(kAvgSeek) * (0.1 + 0.9 * std::sqrt(dist)));
    const SimTime rotation = background_ ? kAvgRotation / 2 : kAvgRotation;
    // Near-contiguous forward skips do not pay a mechanical seek at all:
    // the head streams over the gap.
    const SimTime stream_over =
        sim::transfer_time(blocks_to_bytes(gap), kTransferMbps) +
        500 * sim::kUs;
    service += std::min(seek + rotation, stream_over);
  }
  head_pos_ = lba + n;
  return arm_.submit(now, service, background_);
}

}  // namespace srcache::hdd
