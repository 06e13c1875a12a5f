// FaultInjector: arms a FaultPlan against a device stack and fires events
// as virtual time / measured-op count advance.
//
// The injector is driven by workload::ClosedLoop (RunConfig::fault): before
// each measured request it calls advance(now, ops), which fires every due
// event exactly once, in plan order. Effects go through the BlockDevice
// fault hooks (fail/heal/corrupt/inject_media_errors/degrade_service), so any
// simulated device participates; the SRC-specific reaction to a fail-stop
// (drop unprotected blocks, §4.3) is delivered through an optional callback
// so this layer stays independent of the cache.
//
// All bookkeeping flows into the FaultLedger; workload::read_fault_counters
// reads it, with the fired-event count, into the REPRO_JSON "fault" block.
#pragma once

#include <functional>
#include <vector>

#include "block/block_device.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "fault/ledger.hpp"

namespace srcache::fault {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // Borrowed devices; indices match the plan's ssd<i> targets.
  void attach_ssds(std::vector<blockdev::BlockDevice*> ssds);
  void attach_primary(blockdev::BlockDevice* primary);
  // Invoked with the SSD index and fire time after a fail-stop fires (wire
  // to SrcCache::on_ssd_failure so the array reacts as in §4.3, and to
  // raid::RebuildManager::on_device_failed so the degraded clock starts).
  void set_failure_callback(std::function<void(size_t, sim::SimTime)> cb);
  // Invoked with the SSD index and fire time after a `replace` action has
  // installed a blank device (wire to RebuildManager::on_device_replaced so
  // background reconstruction starts).
  void set_replace_callback(std::function<void(size_t, sim::SimTime)> cb);
  // Invoked with the spare count when a `spare` action fires (wire to
  // RebuildManager::add_spares).
  void set_spare_callback(std::function<void(u32)> cb);
  // Invoked when a powercut event fires (wire to the crash harness; without
  // a callback the event is recorded but has no device effect).
  void set_powercut_callback(std::function<void(sim::SimTime)> cb);

  // Triggers are relative to the measurement window; the closed loop sets the
  // window start so plans read "2s into the measured run".
  void set_epoch(sim::SimTime epoch) { epoch_ = epoch; }

  // Fires every due, not-yet-fired event. Returns true if any fired.
  bool advance(sim::SimTime now, u64 ops);

  [[nodiscard]] u64 events_fired() const { return fired_; }
  [[nodiscard]] u64 events_pending() const {
    return plan_.events().size() - fired_;
  }
  // Absolute sim time of the first event to fire; -1 before any fires.
  [[nodiscard]] sim::SimTime first_fire_time() const { return first_fire_; }

  [[nodiscard]] FaultLedger& ledger() { return ledger_; }
  [[nodiscard]] const FaultLedger& ledger() const { return ledger_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  void fire(const FaultEvent& ev, sim::SimTime now);
  [[nodiscard]] blockdev::BlockDevice* device(int dev) const;

  FaultPlan plan_;
  std::vector<bool> fired_flags_;
  u64 fired_ = 0;
  sim::SimTime epoch_ = 0;
  sim::SimTime first_fire_ = -1;

  std::vector<blockdev::BlockDevice*> ssds_;
  blockdev::BlockDevice* primary_ = nullptr;
  std::function<void(size_t, sim::SimTime)> on_ssd_failure_;
  std::function<void(size_t, sim::SimTime)> on_ssd_replace_;
  std::function<void(u32)> on_spare_;
  std::function<void(sim::SimTime)> on_powercut_;

  common::Xoshiro256 rng_;
  FaultLedger ledger_;
};

}  // namespace srcache::fault
