// RebuildManager: online hot-spare rebuild under full traffic.
//
// The paper puts RAID-4/5 under the SSD cache so a commodity-drive failure
// does not lose dirty cached data (§3.2); this engine pays the recovery
// bill the paper's degraded-mode argument implies. On a device fail-stop it
// starts the degraded clock; when a `replace` fault action installs a blank
// device it consumes a hot spare and drives stripe-by-stripe background
// reconstruction (parity/mirror decode -> spare write), rate-limited by
// REPRO_REBUILD_MBPS and paced by pump() calls the closed loop makes per
// measured op and the engine makes at epoch barriers. pump(now) is monotone
// and idempotent in `now` (budget = rate x elapsed, copy until caught up),
// so double-pumping never changes the outcome and the result stays
// bit-identical across REPRO_THREADS.
//
// SRC-awareness: the cache exports its live-segment map as RebuildExtents
// (set_extent_source), so only live stripes are reconstructed and trimmed/
// invalid ones are skipped — the same trick that makes Sel-GC cheap. Plain
// RAID members sweep the whole device (full_sweep_source). Every manager
// needs a source before its first failure or replace event.
//
// The vulnerability window is tracked end to end: degraded duration,
// blocks-at-risk (unprotected until re-parityed), and the second-failure-
// during-rebuild path. A second failure kills every pending extent whose
// reconstruction needs the newly failed device; those blocks move to the
// permanent `dead` mask (a blank device must never serve them — that would
// be silent corruption), are reported through the abort callback so the
// cache can drop and count them, and leave the original fail-stop's ledger
// record detected-but-unrepaired: detected-unrepairable, never silent.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "block/block_device.hpp"
#include "fault/ledger.hpp"
#include "obs/provenance.hpp"
#include "obs/span.hpp"
#include "raid/raid_device.hpp"
#include "sim/time.hpp"

namespace srcache::raid {

// How one extent of the replaced device is reconstructed.
enum class RebuildHow : u8 {
  kParityXor,  // XOR of every other device's block in the row
  kMirror,     // copy from the surviving mirror (`partner`)
  kMetadata,   // rewritten from in-RAM state (`payload`); needs no survivor
};

// A run of device blocks [block, block + count) on the replaced device.
struct RebuildExtent {
  u64 block = 0;
  u64 count = 0;
  RebuildHow how = RebuildHow::kParityXor;
  size_t partner = SIZE_MAX;  // kMirror: surviving mirror device index
  blockdev::Payload payload;  // kMetadata: bytes to write back
};

struct RebuildConfig {
  double mbps = 256.0;  // background copy rate limit (REPRO_REBUILD_MBPS)
  u32 spares = 1;       // initial hot-spare pool (REPRO_REBUILD_SPARES)
};

// What lands in the REPRO_JSON "rebuild" block. Exact integers only, so
// shard-domain outcomes merge deterministically: counters and bytes sum;
// blocks_at_risk_peak sums (the fleet-level exposure is the sum of each
// domain's peak — domains fail simultaneously under the same plan);
// degraded_ns takes the max (domains degrade in parallel virtual time).
struct RebuildOutcome {
  bool active = false;         // a RebuildManager was attached to the run
  u64 rebuilds_started = 0;
  u64 rebuilds_completed = 0;  // finished with every extent reconstructed
  u64 rebuilds_aborted = 0;    // finished after losing extents (second fault)
  u64 spares_total = 0;
  u64 spares_used = 0;         // > spares_total means a spare deficit
  u64 blocks_at_risk_peak = 0;
  u64 blocks_copied = 0;
  u64 blocks_skipped = 0;      // SRC-aware savings vs a full device sweep
  u64 blocks_unrecovered = 0;  // lost to a second failure during rebuild
  u64 read_bytes = 0;          // survivor reads for reconstruction
  u64 write_bytes = 0;         // writes to the replacement device
  sim::SimTime degraded_ns = 0;

  [[nodiscard]] double degraded_seconds() const {
    return static_cast<double>(degraded_ns) / 1e9;
  }
};

// The REPRO_JSON "rebuild" block.
inline constexpr CounterField<RebuildOutcome> kRebuildOutcomeFields[] = {
    {"rebuilds_started", &RebuildOutcome::rebuilds_started},
    {"rebuilds_completed", &RebuildOutcome::rebuilds_completed},
    {"rebuilds_aborted", &RebuildOutcome::rebuilds_aborted},
    {"spares_total", &RebuildOutcome::spares_total},
    {"spares_used", &RebuildOutcome::spares_used},
    {"blocks_at_risk_peak", &RebuildOutcome::blocks_at_risk_peak},
    {"blocks_copied", &RebuildOutcome::blocks_copied},
    {"blocks_skipped", &RebuildOutcome::blocks_skipped},
    {"blocks_unrecovered", &RebuildOutcome::blocks_unrecovered},
    {"read_bytes", &RebuildOutcome::read_bytes},
    {"write_bytes", &RebuildOutcome::write_bytes},
    {.name = "degraded_seconds", .ratio = &RebuildOutcome::degraded_seconds},
};
// Besides its counters the struct holds `active` (padded to 8 bytes) and
// degraded_ns.
static_assert(names_every_counter(kRebuildOutcomeFields, 2 * sizeof(u64)));

class RebuildManager {
 public:
  // Enumerates the extents a replaced device must be rebuilt from, in copy
  // order (ascending device block). SrcCache::rebuild_extents is the
  // SRC-aware source; full_sweep_source sweeps a plain RAID member.
  using ExtentSource = std::function<std::vector<RebuildExtent>(size_t dev)>;
  // Invoked at `now` when a second failure makes pending extents
  // unreconstructable; `lost` holds their still-uncopied ranges.
  using AbortCallback = std::function<void(
      size_t dev, const std::vector<RebuildExtent>& lost, sim::SimTime now)>;

  RebuildManager(const RebuildConfig& cfg,
                 std::vector<blockdev::BlockDevice*> ssds);

  void set_extent_source(ExtentSource src) { source_ = std::move(src); }
  void set_abort_callback(AbortCallback cb) { on_abort_ = std::move(cb); }
  // Rebuild writes to the spare are ledgered as rebuild_copy under the
  // shared tenant, keeping the per-device provenance balance exact.
  void set_provenance(obs::ProvenanceLedger* ledger) { prov_ = ledger; }
  void set_fault_ledger(fault::FaultLedger* ledger) { ledger_ = ledger; }
  void set_span(obs::SpanTracer* tracer) { span_ = tracer; }

  void add_spares(u32 n) { out_.spares_total += n; }

  // Failure/replace notifications (wire to FaultInjector's callbacks).
  void on_device_failed(size_t dev, sim::SimTime now);
  void on_device_replaced(size_t dev, sim::SimTime now);

  // Copies until the rate budget at `now` is exhausted or nothing is left.
  void pump(sim::SimTime now);

  // Fresh data was just written (or the range trimmed) at device blocks
  // [block, block + count) on every device: those blocks no longer need
  // reconstruction on any rebuilding device, and previously-lost blocks
  // there hold valid new content again. SrcCache calls this on segment
  // seals and SG trims so the rebuilder never overwrites live stripes with
  // stale decodes.
  void discard(u64 block, u64 count);

  // Closes the degraded window at the end of the measurement window (a
  // second failure can leave the array degraded with no rebuild running).
  void finalize(sim::SimTime now);

  [[nodiscard]] bool rebuilding() const;
  // Blocks still unprotected: pending (uncopied) extents across all devices.
  [[nodiscard]] u64 blocks_at_risk() const;

  // True while `block` of `dev` must not be read from the device itself
  // (still blank, or lost forever). A blank spare would return tag 0 for a
  // range not copied yet, which is silent corruption, so read paths treat
  // covered blocks exactly like a failed device (reconstruct via mirror or
  // parity). Blocks that lost their redundancy to a second failure stay
  // covered forever.
  [[nodiscard]] bool covers(size_t dev, u64 block) const;

  [[nodiscard]] RebuildOutcome outcome() const;

 private:
  // Disjoint interval set over device blocks: map from start to end.
  using Intervals = std::map<u64, u64>;
  static void insert(Intervals& set, u64 begin, u64 end);
  static void remove(Intervals& set, u64 begin, u64 end);
  [[nodiscard]] static bool contains(const Intervals& set, u64 block);
  [[nodiscard]] static u64 total(const Intervals& set);

  struct DeviceState {
    bool down = false;        // failed, no replacement installed yet
    bool rebuilding = false;
    bool lost_any = false;    // this rebuild lost extents to a second fault
    std::deque<RebuildExtent> queue;  // uncopied extents, copy order
    u64 cursor = 0;           // blocks already copied within queue.front()
    Intervals pending;        // uncopied mask
    Intervals dead;           // unrecoverable mask; covered forever
  };

  // Copies one batch from devs_[dev].queue.front(); returns blocks copied.
  u64 copy_batch(size_t dev, sim::SimTime now, u64 budget);
  void finish_device(size_t dev, sim::SimTime now);
  // Drops every pending extent of rebuilding device `dev` that needs the
  // newly failed device `lost_dev` for reconstruction.
  void abort_dependent(size_t dev, size_t lost_dev, sim::SimTime now);
  // Moves the still-pending part of [begin, ex end) to `dead`, counts it
  // unrecovered and appends it to `lost`.
  void lose_pending(DeviceState& st, const RebuildExtent& ex, u64 begin,
                    std::vector<RebuildExtent>& lost);
  void maybe_stop_clock(sim::SimTime now);

  RebuildConfig cfg_;
  std::vector<blockdev::BlockDevice*> ssds_;
  std::vector<DeviceState> devs_;
  ExtentSource source_;
  AbortCallback on_abort_;
  obs::ProvenanceLedger* prov_ = nullptr;
  fault::FaultLedger* ledger_ = nullptr;
  obs::SpanTracer* span_ = nullptr;

  sim::SimTime rate_epoch_ = 0;   // rate-limit clock start (first replace)
  u64 budget_spent_bytes_ = 0;
  sim::SimTime degraded_since_ = -1;  // < 0: array healthy
  RebuildOutcome out_;
};

// Extent source for a plain RAID member: rebuild every device block. RAID-1
// copies from the RaidDevice pair partner (dev ^ 1); parity levels XOR the
// row; RAID-0 has no redundancy, so the sweep is empty (the device stays
// masked dead-free but unrecovered — RAID-0 accepts loss by design).
RebuildManager::ExtentSource full_sweep_source(RaidLevel level,
                                               u64 dev_blocks);

}  // namespace srcache::raid
