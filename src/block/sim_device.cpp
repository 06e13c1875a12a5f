#include "block/sim_device.hpp"

namespace srcache::blockdev {

IoResult SimDevice::read(SimTime now, u64 lba, u32 n, std::span<u64> tags_out) {
  if (const ErrorCode e = check(lba, n); e != ErrorCode::kOk) return {now, e};
  const SimTime done = service(DeviceOp::kRead, now, lba, n);
  stats_.read_ops++;
  stats_.read_blocks += n;
  // A latent sector error is reported only after the device has attempted
  // the read (ECC retries), so timing is charged before failing.
  if (media_.affects(lba, n)) return {done, ErrorCode::kMediaError};
  content_.read(lba, n, tags_out);
  return {done, ErrorCode::kOk};
}

IoResult SimDevice::write_blocks(DeviceOp op, SimTime now, u64 lba, u64 n) {
  if (const ErrorCode e = check(lba, n); e != ErrorCode::kOk) return {now, e};
  const SimTime done = service(op, now, lba, n);
  media_.on_write(lba, n);  // remap-on-write
  stats_.write_ops++;
  stats_.write_blocks += n;
  return {done, ErrorCode::kOk};
}

IoResult SimDevice::write(SimTime now, u64 lba, u32 n,
                          std::span<const u64> tags) {
  const IoResult r = write_blocks(DeviceOp::kWrite, now, lba, n);
  if (r.ok()) content_.write(lba, n, tags);
  return r;
}

IoResult SimDevice::write_payload(SimTime now, u64 lba, Payload payload) {
  const u64 n = payload_blocks(payload);
  const IoResult r = write_blocks(DeviceOp::kWritePayload, now, lba, n);
  if (r.ok())
    content_.write_payload(lba, static_cast<u32>(n), std::move(payload));
  return r;
}

Result<Payload> SimDevice::read_payload(SimTime now, u64 lba, SimTime* done) {
  if (const ErrorCode e = check(lba, 1); e != ErrorCode::kOk) return Status(e);
  const IoResult r = read(now, lba, 1, {});
  if (done != nullptr) *done = r.done;
  if (!r.ok()) return Status(r.error);
  return content_.read_payload(lba);
}

IoResult SimDevice::flush(SimTime now) {
  if (failed_) return {now, ErrorCode::kDeviceFailed};
  stats_.flushes++;
  return {service(DeviceOp::kFlush, now, 0, 0), ErrorCode::kOk};
}

IoResult SimDevice::trim(SimTime now, u64 lba, u64 n) {
  if (const ErrorCode e = check(lba, n); e != ErrorCode::kOk) return {now, e};
  const SimTime done = service(DeviceOp::kTrim, now, lba, n);
  media_.on_write(lba, n);
  content_.discard(lba, n);
  stats_.trim_ops++;
  stats_.trim_blocks += n;
  return {done, ErrorCode::kOk};
}

void SimDevice::replace_media() {
  failed_ = false;
  content_.clear();
  media_.clear();
}

}  // namespace srcache::blockdev
