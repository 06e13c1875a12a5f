// Test-only device wrapper for golden I/O pins: a MemDisk that folds every
// call it receives into a CRC-32C shared with its siblings, in arrival
// order. Raid.GoldenMemberIo and Src.GoldenDeviceIo pin these CRCs, so a
// refactor that changes which commands reach a device, their order, timing
// or results moves a pin.
#pragma once

#include "block/mem_disk.hpp"
#include "common/crc32c.hpp"
#include "obs/span.hpp"

namespace srcache::blockdev {

// Folds (device id, op, issue time, offset, count, completion, error) of
// every call, plus the tags read or written, into `*crc`. replace_media is
// folded as op 7 and forwarded, so a drive swap installs a blank MemDisk.
// With a watched tracer, each call also folds how many timeline events had
// been recorded by then, which pins where events fall between commands.
class RecordingDisk final : public BlockDevice {
 public:
  RecordingDisk(u64 id, const MemDiskConfig& cfg, u32* crc)
      : id_(id), disk_(cfg), crc_(crc) {}

  void watch(const obs::SpanTracer* tracer) { tracer_ = tracer; }

  [[nodiscard]] u64 capacity_blocks() const override {
    return disk_.capacity_blocks();
  }
  IoResult read(SimTime now, u64 lba, u32 n, std::span<u64> tags_out) override {
    const IoResult r = disk_.read(now, lba, n, tags_out);
    record(1, now, lba, n, r);
    if (r.ok())
      for (u64 t : tags_out) fold(t);
    return r;
  }
  IoResult write(SimTime now, u64 lba, u32 n,
                 std::span<const u64> tags) override {
    const IoResult r = disk_.write(now, lba, n, tags);
    record(2, now, lba, n, r);
    for (u64 t : tags) fold(t);
    return r;
  }
  IoResult write_payload(SimTime now, u64 lba, Payload payload) override {
    const u64 bytes = payload ? payload->size() : 0;
    const IoResult r = disk_.write_payload(now, lba, std::move(payload));
    record(3, now, lba, bytes, r);
    return r;
  }
  Result<Payload> read_payload(SimTime now, u64 lba, SimTime* done) override {
    SimTime t = now;
    auto r = disk_.read_payload(now, lba, &t);
    record(4, now, lba, r.is_ok() && r.value() ? r.value()->size() : 0,
           {t, r.code()});
    if (done != nullptr) *done = t;
    return r;
  }
  IoResult flush(SimTime now) override {
    const IoResult r = disk_.flush(now);
    record(5, now, 0, 0, r);
    return r;
  }
  IoResult trim(SimTime now, u64 lba, u64 n) override {
    const IoResult r = disk_.trim(now, lba, n);
    record(6, now, lba, n, r);
    return r;
  }
  [[nodiscard]] const DeviceStats& stats() const override {
    return disk_.stats();
  }
  void fail() override { disk_.fail(); }
  void heal() override { disk_.heal(); }
  void replace_media() override {
    record(7, 0, 0, 0, {});
    disk_.replace_media();
  }
  [[nodiscard]] bool failed() const override { return disk_.failed(); }
  void corrupt(u64 lba) override { disk_.corrupt(lba); }
  void inject_media_errors(u64 lba, u64 n) override {
    disk_.inject_media_errors(lba, n);
  }
  void clear_media_errors() override { disk_.clear_media_errors(); }

 private:
  void fold(u64 v) { *crc_ = common::crc32c_of(v, *crc_); }
  void record(u64 op, SimTime now, u64 lba, u64 n, IoResult r) {
    for (u64 v : {id_, op, static_cast<u64>(now), lba, n,
                  static_cast<u64>(r.done), static_cast<u64>(r.error)})
      fold(v);
    if (tracer_ != nullptr)
      fold(tracer_->timeline().size() + tracer_->timeline_dropped());
  }

  u64 id_;
  MemDisk disk_;
  u32* crc_;
  const obs::SpanTracer* tracer_ = nullptr;
};

// Folds every DeviceStats counter into `crc`.
inline u32 fold_stats(const DeviceStats& s, u32 crc) {
  for (const auto& f : kDeviceStatsFields)
    crc = common::crc32c_of(s.*f.counter, crc);
  return crc;
}

}  // namespace srcache::blockdev
