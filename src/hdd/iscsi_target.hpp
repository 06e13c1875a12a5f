// IscsiTarget: the paper's primary storage — a RAID-10 volume of eight
// 7.2K-RPM disks exported over a 1 Gbps iSCSI link (Table 1).
//
// The target is a Linux storage server, so it has a page cache: reads that
// hit server RAM are served at link speed, and writes are absorbed into
// RAM (bounded by a dirty limit) and drained to the disks by a background
// writeback path. Without this, no mechanical array could absorb the
// destage rates the paper sustains.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "block/block_device.hpp"
#include "hdd/sim_hdd.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "raid/raid_device.hpp"
#include "sim/timeline.hpp"
#include "sim/write_back_buffer.hpp"

namespace srcache::hdd {

struct IscsiConfig {
  HddConfig disk;
  // Server page cache (the paper's target host has 32 GB RAM).
  u64 server_cache_bytes = 24 * GiB;
  // Writes beyond this un-drained backlog block at disk speed.
  u64 dirty_limit_bytes = 4 * GiB;
};

class IscsiTarget final : public blockdev::BlockDevice {
 public:
  explicit IscsiTarget(const IscsiConfig& cfg);

  [[nodiscard]] u64 capacity_blocks() const override;

  blockdev::IoResult read(SimTime now, u64 lba, u32 n,
                          std::span<u64> tags_out) override;
  blockdev::IoResult write(SimTime now, u64 lba, u32 n,
                           std::span<const u64> tags) override;
  blockdev::IoResult write_payload(SimTime now, u64 lba,
                                   blockdev::Payload payload) override;
  Result<blockdev::Payload> read_payload(SimTime now, u64 lba,
                                         SimTime* done) override;
  blockdev::IoResult flush(SimTime now) override;
  blockdev::IoResult trim(SimTime now, u64 lba, u64 n) override;

  [[nodiscard]] const blockdev::DeviceStats& stats() const override {
    return stats_;
  }

  void set_background(bool background) override { background_ = background; }

  void fail() override { failed_ = true; }
  void heal() override { failed_ = false; }
  [[nodiscard]] bool failed() const override {
    return failed_ || volume_->failed();
  }
  void corrupt(u64 lba) override { volume_->corrupt(lba); }

  // Link degradation (iSCSI path congestion / flaky interconnect): wire
  // transfers and round trips are stretched by `factor` until `until`.
  void degrade_service(double factor, SimTime until) override {
    degrade_factor_ = factor;
    degrade_until_ = until;
  }
  [[nodiscard]] bool degraded(SimTime now) const {
    return now < degrade_until_ && degrade_factor_ > 1.0;
  }

  // Member-disk access for fault-injection tests.
  [[nodiscard]] SimHdd& disk(size_t i) { return *disks_.at(i); }
  [[nodiscard]] size_t num_disks() const { return disks_.size(); }
  // Server page-cache hits (for model sanity checks).
  [[nodiscard]] u64 ram_hits() const { return ram_hits_; }

  // Registers pull-style observability metrics (link busy time, page-cache
  // hits, I/O and dirty-backlog accounting) under `scope`, e.g. "hdd". The
  // callbacks read this target; it must outlive the registry's snapshots.
  void register_metrics(const obs::Scope& scope);

  // Attaches a tracer (nullptr detaches): per-command read/write/flush
  // events go to its timeline on lane kLanePrimary.
  void set_span(obs::SpanTracer* tracer) { span_ = tracer; }

 private:
  SimTime link_transfer(SimTime now, u64 bytes);
  // Half a network round trip, stretched while the link is degraded.
  [[nodiscard]] SimTime half_rtt(SimTime now) const;
  // Two-generation LRU approximation over 4 KiB blocks (lba -> tag).
  [[nodiscard]] bool cache_lookup(u64 lba, u64* tag) const;
  void cache_insert(u64 lba, u64 tag);

  IscsiConfig cfg_;
  std::vector<std::unique_ptr<SimHdd>> disks_;
  std::unique_ptr<raid::RaidDevice> volume_;
  sim::PriorityTimeline link_;
  bool background_ = false;
  bool failed_ = false;
  double degrade_factor_ = 1.0;
  SimTime degrade_until_ = 0;

  std::unordered_map<u64, u64> gen_cur_, gen_prev_;
  u64 gen_capacity_blocks_;
  // Dirty pages: writes complete once absorbed into server RAM and drain
  // to the volume in the background.
  sim::WriteBackBuffer dirty_;
  u64 ram_hits_ = 0, ram_misses_ = 0;
  blockdev::DeviceStats stats_;

  obs::SpanTracer* span_ = nullptr;
};

}  // namespace srcache::hdd
