#include "block/mem_disk.hpp"

#include <stdexcept>

namespace srcache::blockdev {

MemDisk::MemDisk(const MemDiskConfig& cfg)
    : cfg_(cfg), content_(cfg.track_content) {
  if (cfg_.capacity_blocks == 0) {
    throw std::invalid_argument("MemDisk capacity must be > 0");
  }
}

SimTime MemDisk::scaled(SimTime now, SimTime service) const {
  if (now >= degrade_until_ || degrade_factor_ <= 1.0) return service;
  return static_cast<SimTime>(static_cast<double>(service) * degrade_factor_);
}

IoResult MemDisk::transfer(SimTime now, u64 lba, u32 n) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  if (lba + n > cfg_.capacity_blocks) return {now, ErrorCode::kInvalidArgument};
  const SimTime service =
      cfg_.op_latency + sim::transfer_time(blocks_to_bytes(n), cfg_.bandwidth_mbps);
  return {line_.submit(now, scaled(now, service)), ErrorCode::kOk};
}

IoResult MemDisk::read(SimTime now, u64 lba, u32 n, std::span<u64> tags_out) {
  IoResult r = transfer(now, lba, n);
  if (!r.ok()) return r;
  stats_.read_ops++;
  stats_.read_blocks += n;
  if (media_.affects(lba, n)) return {r.done, ErrorCode::kMediaError};
  content_.read(lba, n, tags_out);
  return r;
}

IoResult MemDisk::write(SimTime now, u64 lba, u32 n, std::span<const u64> tags) {
  IoResult r = transfer(now, lba, n);
  if (!r.ok()) return r;
  media_.on_write(lba, n);
  content_.write(lba, n, tags);
  stats_.write_ops++;
  stats_.write_blocks += n;
  return r;
}

IoResult MemDisk::write_payload(SimTime now, u64 lba, Payload payload) {
  const auto n = static_cast<u32>(payload_blocks(payload));
  IoResult r = transfer(now, lba, n);
  if (!r.ok()) return r;
  media_.on_write(lba, n);
  content_.write_payload(lba, n, std::move(payload));
  stats_.write_ops++;
  stats_.write_blocks += n;
  return r;
}

Result<Payload> MemDisk::read_payload(SimTime now, u64 lba, SimTime* done) {
  if (failed_) return Status(ErrorCode::kDeviceFailed);
  IoResult r = transfer(now, lba, 1);
  if (done != nullptr) *done = r.done;
  stats_.read_ops++;
  stats_.read_blocks += 1;
  if (media_.affects(lba, 1)) return Status(ErrorCode::kMediaError);
  return content_.read_payload(lba);
}

IoResult MemDisk::flush(SimTime now) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  stats_.flushes++;
  return {line_.submit(now, cfg_.flush_latency), ErrorCode::kOk};
}

IoResult MemDisk::trim(SimTime now, u64 lba, u64 n) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  media_.on_write(lba, n);
  content_.discard(lba, n);
  stats_.trim_ops++;
  stats_.trim_blocks += n;
  return {line_.submit(now, cfg_.op_latency), ErrorCode::kOk};
}

}  // namespace srcache::blockdev
