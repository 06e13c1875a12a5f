// Software RAID over block devices — the layer the paper puts *under*
// Bcache/Flashcache to build Bcache5/Flashcache5 (§3.2, §5.4), and the
// RAID-10 organisation of the HDD primary storage (Table 1).
//
// RAID-4/5 exhibit the small-write problem: a sub-stripe write needs a
// read-modify-write (read old data + old parity, write new data + new
// parity) or a reconstruct-write (read the untouched blocks, write data +
// parity); the device picks whichever needs fewer reads. Full-stripe writes
// need neither. SRC's log-structured stripe formation exists precisely to
// turn every cache write into the full-stripe case.
//
// One data path: every member access (data, parity and trim) is a list of
// block cells that one routine sorts and issues as per-member runs, and
// every RAID-4/5 write goes through one per-stripe planner that picks the
// strategy, then runs one read pass, one parity formula and one write
// pass; a full-stripe write is a reconstruct-write with nothing to read.
// A write covering a block with no live copy fails instead of acking.
#pragma once

#include <vector>

#include "block/block_device.hpp"
#include "obs/span.hpp"
#include "raid/raid_level.hpp"

namespace srcache::raid {

using blockdev::BlockDevice;
using blockdev::DeviceStats;
using blockdev::IoResult;
using blockdev::Payload;
using sim::SimTime;

struct RaidConfig {
  RaidLevel level = RaidLevel::kRaid5;
  u32 chunk_blocks = 1;  // 4 KiB chunks: the paper's Bcache5/Flashcache5 setup
};

// Extra accounting on top of per-device stats.
struct RaidStats {
  u64 full_stripe_writes = 0;
  u64 rmw_writes = 0;          // read-modify-write parity updates
  u64 reconstruct_writes = 0;  // reconstruct-write parity updates
  u64 degraded_reads = 0;
};

class RaidDevice final : public BlockDevice {
 public:
  // Devices are borrowed; all must have equal capacity. RAID-1 requires an
  // even device count and stripes across mirrored pairs (RAID-10 style, the
  // capacity/2 organisation the paper describes).
  RaidDevice(const RaidConfig& cfg, std::vector<BlockDevice*> devices);

  [[nodiscard]] u64 capacity_blocks() const override {
    return capacity_blocks_;
  }
  [[nodiscard]] const RaidConfig& config() const { return cfg_; }
  [[nodiscard]] const RaidStats& raid_stats() const { return rstats_; }

  IoResult read(SimTime now, u64 lba, u32 n, std::span<u64> tags_out) override;
  IoResult write(SimTime now, u64 lba, u32 n,
                 std::span<const u64> tags) override;
  IoResult write_payload(SimTime now, u64 lba, Payload payload) override;
  Result<Payload> read_payload(SimTime now, u64 lba, SimTime* done) override;
  IoResult flush(SimTime now) override;
  IoResult trim(SimTime now, u64 lba, u64 n) override;

  [[nodiscard]] const DeviceStats& stats() const override { return stats_; }

  void set_background(bool background) override {
    for (auto* d : devs_) d->set_background(background);
  }

  // Fault injection: RAID itself never "fails"; fail member devices instead.
  void fail() override {}
  void heal() override {}
  [[nodiscard]] bool failed() const override;
  void corrupt(u64 lba) override;

  // Testing hook: true if every parity block of the stripe containing
  // `lba` equals the XOR of its data blocks (content-tracking devices only).
  [[nodiscard]] bool verify_parity(u64 lba);

  // Number of member-device failures this level can currently tolerate.
  [[nodiscard]] int redundancy() const;

  // Attaches an op-span tracer (nullptr detaches). Sampled ops contribute
  // "raid.read"/"raid.write" spans with per-stripe children naming the
  // parity-update strategy (full-stripe, RMW, reconstruct-write) and a
  // "raid.reconstruct" child on degraded reads.
  void set_span(obs::SpanTracer* tracer) { span_ = tracer; }

 private:
  struct Loc {
    size_t dev;
    u64 off;     // block offset on the device
    size_t mirror = SIZE_MAX;  // RAID-1 partner
  };
  // One block-granular member access; runs are merged before submission.
  struct Cell {
    size_t dev;
    u64 off;
    u64 tag = 0;         // value to write
    u64* out = nullptr;  // destination for reads
  };
  enum class MemberOp { kRead, kWrite, kPayload, kTrim };

  [[nodiscard]] Loc locate(u64 lba) const;
  [[nodiscard]] size_t parity_dev(u64 stripe) const;
  [[nodiscard]] u64 stripe_of(u64 lba) const;

  // Sorts `cells` by (device, offset) and issues each contiguous run as one
  // member command at `now`: reads land in Cell::out, writes carry
  // Cell::tag, and a kPayload run (one payload's blocks on one member)
  // stores `*payload`. A failed run does not stop the later ones; the
  // result is the latest completion of the runs that succeeded plus the
  // last member error. Read and write runs count in `stats`; the caller
  // counts a trim request once.
  IoResult run_members(MemberOp op, std::vector<Cell>& cells,
                       DeviceStats& stats, SimTime now,
                       const Payload* payload = nullptr);
  // The write path of write() and write_payload(). With `payload`, the n
  // blocks hold one payload that lies in one run on each member: every
  // live data copy is one member payload write, and parity is planned as
  // for tag 0, which is what a payload block reads as.
  IoResult write_blocks(SimTime now, u64 lba, u32 n, std::span<const u64> tags,
                        const Payload* payload);
  IoResult write_parity_level(SimTime now, u64 lba, u32 n,
                              std::span<const u64> tags,
                              const Payload* payload);
  // Reconstructs one block of a failed device from the rest of its row.
  Result<u64> reconstruct_block(SimTime now, size_t dead_dev, u64 off,
                                SimTime* done);

  RaidConfig cfg_;
  std::vector<BlockDevice*> devs_;
  u64 capacity_blocks_ = 0;
  u64 dev_blocks_ = 0;
  DeviceStats stats_;
  RaidStats rstats_;
  u32 mirror_rr_ = 0;
  obs::SpanTracer* span_ = nullptr;
  // Scratch reused across calls, so the data path does not allocate once
  // warm: member cells of a read, write, trim or the planner's payload
  // copy, the planner's read and write cells and old values, one member
  // run's tags, and the destination of a read whose caller wants no tags.
  std::vector<Cell> cells_, reads_, writes_;
  std::vector<u64> old_val_, run_buf_, discard_;
};

}  // namespace srcache::raid
