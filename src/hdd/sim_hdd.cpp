#include "hdd/sim_hdd.hpp"

#include <cmath>
#include <stdexcept>

namespace srcache::hdd {

SimHdd::SimHdd(const HddConfig& cfg)
    : cfg_(cfg),
      blocks_(cfg.capacity_bytes / kBlockSize),
      content_(cfg.track_content) {
  if (blocks_ == 0) throw std::invalid_argument("SimHdd capacity too small");
}

IoResult SimHdd::access(SimTime now, u64 lba, u32 n) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  if (lba + n > blocks_) return {now, ErrorCode::kInvalidArgument};
  SimTime service = cfg_.command_overhead +
                    sim::transfer_time(blocks_to_bytes(n), cfg_.transfer_mbps);
  if (lba != head_pos_) {
    // Positioning: seek distance scales the seek time down to a
    // track-to-track floor, plus rotational delay. Background batches
    // (elevator-sorted destage sweeps) see rotational-position-ordered
    // scheduling: half the average rotational latency.
    const u64 gap = lba > head_pos_ ? lba - head_pos_ : head_pos_ - lba;
    const double dist = static_cast<double>(gap) / static_cast<double>(blocks_);
    const auto seek = static_cast<SimTime>(
        static_cast<double>(cfg_.avg_seek) * (0.1 + 0.9 * std::sqrt(dist)));
    const SimTime rotation =
        background_ ? cfg_.avg_rotation / 2 : cfg_.avg_rotation;
    // Near-contiguous forward skips do not pay a mechanical seek at all:
    // the head streams over the gap.
    const SimTime stream_over =
        sim::transfer_time(blocks_to_bytes(gap), cfg_.transfer_mbps) +
        500 * sim::kUs;
    service += std::min(seek + rotation, stream_over);
  }
  head_pos_ = lba + n;
  return {arm_.submit(now, service, background_), ErrorCode::kOk};
}

IoResult SimHdd::read(SimTime now, u64 lba, u32 n, std::span<u64> tags_out) {
  IoResult r = access(now, lba, n);
  if (!r.ok()) return r;
  stats_.read_ops++;
  stats_.read_blocks += n;
  if (media_.affects(lba, n)) return {r.done, ErrorCode::kMediaError};
  content_.read(lba, n, tags_out);
  return r;
}

IoResult SimHdd::write(SimTime now, u64 lba, u32 n, std::span<const u64> tags) {
  IoResult r = access(now, lba, n);
  if (!r.ok()) return r;
  media_.on_write(lba, n);
  content_.write(lba, n, tags);
  stats_.write_ops++;
  stats_.write_blocks += n;
  return r;
}

IoResult SimHdd::write_payload(SimTime now, u64 lba, Payload payload) {
  const auto n = static_cast<u32>(blockdev::payload_blocks(payload));
  IoResult r = access(now, lba, n);
  if (!r.ok()) return r;
  media_.on_write(lba, n);
  content_.write_payload(lba, n, std::move(payload));
  stats_.write_ops++;
  stats_.write_blocks += n;
  return r;
}

Result<Payload> SimHdd::read_payload(SimTime now, u64 lba, SimTime* done) {
  if (failed_) return Status(ErrorCode::kDeviceFailed);
  IoResult r = access(now, lba, 1);
  if (done != nullptr) *done = r.done;
  stats_.read_ops++;
  stats_.read_blocks++;
  if (media_.affects(lba, 1)) return Status(ErrorCode::kMediaError);
  return content_.read_payload(lba);
}

IoResult SimHdd::flush(SimTime now) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  stats_.flushes++;
  // Drain the on-disk write cache: wait for the arm to go idle.
  return {arm_.submit(now, 0, background_), ErrorCode::kOk};
}

IoResult SimHdd::trim(SimTime now, u64 lba, u64 n) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  media_.on_write(lba, n);
  content_.discard(lba, n);
  stats_.trim_ops++;
  stats_.trim_blocks += n;
  return {now + cfg_.command_overhead, ErrorCode::kOk};
}

}  // namespace srcache::hdd
