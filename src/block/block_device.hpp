// The block-device abstraction every srcache layer stacks on: simulated SSDs,
// simulated HDD arrays, software RAID, and the iSCSI primary-storage target
// all implement this interface, mirroring how the paper's SRC prototype sits
// in the Linux Device Mapper stack.
//
// Content model: a device addresses fixed 4 KiB blocks. Each block's content
// is represented by a 64-bit *tag* (a logical data version stamped by the
// writer) plus, for blocks that carry structured metadata (SRC's MS/ME
// blocks, superblocks, journals), an optional byte payload. Tags are enough
// to implement and *test* real checksums, XOR parity, and recovery scans
// without materializing gigabytes.
//
// Timing model: every operation takes its issue time and returns an IoResult
// whose `done` is the completion time on the device's internal timelines.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "block/counter_fields.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace srcache::blockdev {

using sim::SimTime;

// Payloads are immutable and shared; devices store the pointer, so a reader
// sees exactly the bytes the writer produced (or a corrupted copy).
using Payload = std::shared_ptr<const std::vector<u8>>;

struct IoResult {
  SimTime done = 0;
  ErrorCode error = ErrorCode::kOk;

  [[nodiscard]] bool ok() const { return error == ErrorCode::kOk; }
};

// Cumulative per-device accounting, used by the bench harness to compute
// I/O amplification and by the cost model to estimate lifetime.
struct DeviceStats {
  u64 read_ops = 0;
  u64 read_blocks = 0;
  u64 write_ops = 0;
  u64 write_blocks = 0;
  u64 flushes = 0;
  u64 trim_ops = 0;
  u64 trim_blocks = 0;

  [[nodiscard]] u64 total_blocks() const { return read_blocks + write_blocks; }
};

// The REPRO_JSON "ssd" block (summed over the cache SSDs).
inline constexpr CounterField<DeviceStats> kDeviceStatsFields[] = {
    {"read_ops", &DeviceStats::read_ops},
    {"read_blocks", &DeviceStats::read_blocks},
    {"write_ops", &DeviceStats::write_ops},
    {"write_blocks", &DeviceStats::write_blocks},
    {"flushes", &DeviceStats::flushes},
    {.name = "trim_ops", .counter = &DeviceStats::trim_ops, .json = false},
    {"trim_blocks", &DeviceStats::trim_blocks},
};
static_assert(names_every_counter(kDeviceStatsFields));

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  [[nodiscard]] virtual u64 capacity_blocks() const = 0;

  // Reads `n` blocks starting at `lba`. If `tags_out` is non-empty it must
  // hold at least n entries and receives the stored tags (0 for
  // never-written blocks, or when content tracking is disabled).
  virtual IoResult read(SimTime now, u64 lba, u32 n,
                        std::span<u64> tags_out = {}) = 0;

  // Writes `n` blocks starting at `lba`. `tags` is either empty (content
  // becomes tag 0) or holds n entries.
  virtual IoResult write(SimTime now, u64 lba, u32 n,
                         std::span<const u64> tags = {}) = 0;

  // Writes a structured payload spanning ceil(size / 4 KiB) blocks at `lba`.
  // The payload is retrievable via read_payload until overwritten.
  virtual IoResult write_payload(SimTime now, u64 lba, Payload payload) = 0;

  // Reads back the payload most recently stored at `lba`, or kNotFound if
  // the block was overwritten by a plain write / trimmed / never written.
  virtual Result<Payload> read_payload(SimTime now, u64 lba,
                                       SimTime* done = nullptr) = 0;

  // Durability barrier: completes once all previously-acknowledged writes
  // have reached stable media (paper §3: the expensive operation).
  virtual IoResult flush(SimTime now) = 0;

  // Discards a block range (advisory; SSDs reclaim the space).
  virtual IoResult trim(SimTime now, u64 lba, u64 n) = 0;

  [[nodiscard]] virtual const DeviceStats& stats() const = 0;

  // --- fault injection (testing & the paper's failure-handling paths) ---

  // Whole-device fail-stop. All subsequent ops return kDeviceFailed.
  virtual void fail() = 0;
  virtual void heal() = 0;
  [[nodiscard]] virtual bool failed() const = 0;

  // Physical drive swap: the device comes back serviceable but *blank* —
  // all stored content and payloads are gone and any internal translation
  // state is reset, unlike heal(), whose contents survive (a transient
  // fault). Devices that track no content just heal.
  virtual void replace_media() { heal(); }

  // Silent corruption (paper §4.1 cites Bairavasundaram et al.): flips the
  // stored content of one block without any device-visible error.
  virtual void corrupt(u64 lba) = 0;

  // Latent sector errors: reads touching [lba, lba + n) return kMediaError
  // until the blocks are rewritten (remap-on-write). Devices that do not
  // model media errors ignore the injection.
  virtual void inject_media_errors(u64 lba, u64 n) {
    (void)lba;
    (void)n;
  }
  virtual void clear_media_errors() {}

  // Service degradation (link congestion, failing interconnect): service
  // times are multiplied by `factor` until virtual time `until`. Devices
  // without a degradable path ignore it.
  virtual void degrade_service(double factor, SimTime until) {
    (void)factor;
    (void)until;
  }

  // Marks subsequent operations as background (destaging, rebuild): they
  // yield to foreground traffic on devices that support priorities.
  // Default: no distinction.
  virtual void set_background(bool background) { (void)background; }
};

// Tag helpers: writers stamp data blocks with tags derived from (lba,
// version) so that integrity checks and parity reconstruction are testable.
constexpr u64 make_tag(u64 lba, u64 version) {
  return (version << 40) ^ (lba + 1) * 0x9E3779B97F4A7C15ull;
}

// A rebuild-in-progress mask over an array of devices. A replaced (blank)
// member must not serve reads for block ranges the rebuilder has not copied
// yet — a blank device would happily return tag 0, which is silent
// corruption. Read paths consult covers(dev, block) and treat covered
// blocks exactly like a failed device (reconstruct via mirror/parity).
// Blocks that lost their redundancy to a second failure stay covered
// forever. Implemented by raid::RebuildManager; declared here so both the
// RAID layer and the SRC cache can consume it without new dependencies.
struct RebuildMask {
  virtual ~RebuildMask() = default;
  [[nodiscard]] virtual bool covers(size_t dev, u64 block) const = 0;
};

}  // namespace srcache::blockdev
