// SimDevice: the one core under every simulated leaf device (MemDisk,
// SimHdd, SimSsd). It owns everything in the BlockDevice contract that is
// not timing: the fail-stop flag and the bounds check, block content (tags
// and payloads), latent sector errors, DeviceStats accounting, fault
// injection and power cuts. A leaf supplies only service(): when a command
// completes on its internal resources.
#pragma once

#include <vector>

#include "block/block_device.hpp"
#include "block/content_store.hpp"
#include "block/media_errors.hpp"

namespace srcache::blockdev {

// The command a leaf's service() times. A payload read is timed as a
// one-block kRead.
enum class DeviceOp : u8 { kRead, kWrite, kWritePayload, kFlush, kTrim };

// The power supply several devices share (crash tests). Every command that
// would change media (write, payload write, trim, flush) on a live device
// and in range draws from it and is logged. Once `budget` commands have
// drawn, power is off: each later one is dropped, changing neither media
// nor DeviceStats, and is acked at its issue time. Reads draw nothing.
struct PowerRail {
  u64 budget = ~0ull;         // commands that pass before the cut
  bool off = false;
  std::vector<DeviceOp> log;  // the commands drawn, in order
  // False when power is off and the command must be dropped.
  bool draw(DeviceOp op);
  void restore() {  // power back on, no cut armed
    budget = ~0ull;
    off = false;
  }
};

class SimDevice : public BlockDevice {
 public:
  [[nodiscard]] u64 capacity_blocks() const final { return capacity_; }

  // Each command fails with kDeviceFailed on a failed device, then (flush
  // aside) with kInvalidArgument out of range, before the leaf times it or
  // anything is counted. A read that touches a latent error is timed and
  // counted, then fails with kMediaError.
  IoResult read(SimTime now, u64 lba, u32 n, std::span<u64> tags_out) final;
  IoResult write(SimTime now, u64 lba, u32 n, std::span<const u64> tags) final;
  IoResult write_payload(SimTime now, u64 lba, Payload payload) final;
  Result<Payload> read_payload(SimTime now, u64 lba, SimTime* done) final;
  IoResult flush(SimTime now) final;
  IoResult trim(SimTime now, u64 lba, u64 n) final;

  [[nodiscard]] const DeviceStats& stats() const final { return stats_; }

  void fail() final { failed_ = true; }
  void heal() final { failed_ = false; }
  [[nodiscard]] bool failed() const final { return failed_; }
  // A blank drive swap. Timing state and cumulative stats belong to the
  // array slot, not the media, so they survive it.
  void replace_media() override;
  void corrupt(u64 lba) final { content_.corrupt(lba); }
  void inject_media_errors(u64 lba, u64 n) final { media_.add(lba, n); }
  void clear_media_errors() final { media_.clear(); }
  [[nodiscard]] u64 media_error_blocks() const { return media_.size(); }
  // Puts the device on a shared power rail (nullptr: always powered).
  void set_power_rail(PowerRail* rail) { rail_ = rail; }

 protected:
  SimDevice(u64 capacity_blocks, bool track_content)
      : capacity_(capacity_blocks), content_(track_content) {}

  // Completion time of `op` on [lba, lba + n), issued at `now` (lba and n
  // are 0 for kFlush). Called only for a live device and an in-range
  // command; a leaf's timing state (and SimSsd's FTL) changes here.
  virtual SimTime service(DeviceOp op, SimTime now, u64 lba, u64 n) = 0;

  void reset_stats() { stats_ = DeviceStats{}; }

 private:
  [[nodiscard]] ErrorCode check(u64 lba, u64 n) const {
    if (failed_) return ErrorCode::kDeviceFailed;
    if (lba + n > capacity_) return ErrorCode::kInvalidArgument;
    return ErrorCode::kOk;
  }
  // False when the rail has cut power: the command must be dropped.
  bool powered(DeviceOp op) { return rail_ == nullptr || rail_->draw(op); }
  // A checked write of n blocks at lba that, when powered, is timed and
  // counted and returns true; content is the caller's.
  bool write_blocks(DeviceOp op, SimTime now, u64 lba, u64 n, IoResult& r);

  u64 capacity_;
  ContentStore content_;
  MediaErrorSet media_;
  DeviceStats stats_;
  bool failed_ = false;
  PowerRail* rail_ = nullptr;
};

}  // namespace srcache::blockdev
