#include "fault/fault_injector.hpp"

#include <stdexcept>

namespace srcache::fault {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      fired_flags_(plan_.events().size(), false),
      rng_(plan_.seed()) {}

void FaultInjector::attach_ssds(std::vector<blockdev::BlockDevice*> ssds) {
  ssds_ = std::move(ssds);
  for (const FaultEvent& ev : plan_.events()) {
    if (ev.dev != kPrimaryDev &&
        static_cast<size_t>(ev.dev) >= ssds_.size()) {
      throw std::invalid_argument("fault plan targets ssd" +
                                  std::to_string(ev.dev) + " but only " +
                                  std::to_string(ssds_.size()) +
                                  " SSDs are attached");
    }
  }
}

void FaultInjector::attach_primary(blockdev::BlockDevice* primary) {
  primary_ = primary;
}

void FaultInjector::set_failure_callback(
    std::function<void(size_t, sim::SimTime)> cb) {
  on_ssd_failure_ = std::move(cb);
}

void FaultInjector::set_replace_callback(
    std::function<void(size_t, sim::SimTime)> cb) {
  on_ssd_replace_ = std::move(cb);
}

void FaultInjector::set_spare_callback(std::function<void(u32)> cb) {
  on_spare_ = std::move(cb);
}

void FaultInjector::set_powercut_callback(
    std::function<void(sim::SimTime)> cb) {
  on_powercut_ = std::move(cb);
}

blockdev::BlockDevice* FaultInjector::device(int dev) const {
  if (dev == kPrimaryDev) return primary_;
  return static_cast<size_t>(dev) < ssds_.size()
             ? ssds_[static_cast<size_t>(dev)]
             : nullptr;
}

bool FaultInjector::advance(sim::SimTime now, u64 ops) {
  if (fired_ == plan_.events().size()) return false;
  const sim::SimTime rel = now > epoch_ ? now - epoch_ : 0;
  bool any = false;
  for (size_t i = 0; i < plan_.events().size(); ++i) {
    if (fired_flags_[i]) continue;
    const FaultEvent& ev = plan_.events()[i];
    if (!ev.trigger.due(rel, ops)) continue;
    fired_flags_[i] = true;
    fired_++;
    if (first_fire_ < 0) first_fire_ = now;
    fire(ev, now);
    any = true;
  }
  return any;
}

void FaultInjector::fire(const FaultEvent& ev, sim::SimTime now) {
  blockdev::BlockDevice* dev = device(ev.dev);
  switch (ev.kind) {
    case FaultKind::kFailStop:
      if (dev == nullptr) return;
      dev->fail();
      // A fail-stop is device-reported, hence detected the moment the array
      // observes it — which is immediately, via the failure callback.
      ledger_.record_injected(ev.kind, ev.dev);
      ledger_.record_detected(ev.dev);
      if (ev.dev != kPrimaryDev && on_ssd_failure_)
        on_ssd_failure_(static_cast<size_t>(ev.dev), now);
      break;
    case FaultKind::kHeal:
      if (dev != nullptr) dev->heal();
      break;
    case FaultKind::kReplace:
      // A drive swap is a repair step, not a new fault: no ledger record is
      // opened here. The earlier fail-stop's device-scope record is marked
      // repaired by the rebuild manager once reconstruction completes.
      if (dev == nullptr) return;
      dev->replace_media();
      if (ev.dev != kPrimaryDev && on_ssd_replace_)
        on_ssd_replace_(static_cast<size_t>(ev.dev), now);
      break;
    case FaultKind::kSpare:
      if (on_spare_) on_spare_(static_cast<u32>(ev.count));
      break;
    case FaultKind::kCorrupt: {
      if (dev == nullptr) return;
      if (ev.count == 0) {
        for (u64 lba = ev.lba_begin; lba < ev.lba_end; ++lba) {
          dev->corrupt(lba);
          ledger_.record_injected(ev.kind, ev.dev, lba);
        }
      } else {
        for (u64 i = 0; i < ev.count; ++i) {
          const u64 lba =
              ev.lba_begin + rng_.below(ev.lba_end - ev.lba_begin);
          dev->corrupt(lba);
          ledger_.record_injected(ev.kind, ev.dev, lba);
        }
      }
      break;
    }
    case FaultKind::kLatent:
      if (dev == nullptr) return;
      dev->inject_media_errors(ev.lba_begin, ev.lba_end - ev.lba_begin);
      for (u64 lba = ev.lba_begin; lba < ev.lba_end; ++lba)
        ledger_.record_injected(ev.kind, ev.dev, lba);
      break;
    case FaultKind::kLinkDegrade:
      if (dev == nullptr) return;
      dev->degrade_service(ev.factor, now + ev.duration);
      // A slow link is immediately visible in latency; performance faults
      // count as detected on injection.
      ledger_.record_injected(ev.kind, ev.dev);
      ledger_.record_detected(ev.dev);
      break;
    case FaultKind::kPowerCut:
      ledger_.record_injected(ev.kind, kPrimaryDev, now);
      if (on_powercut_) on_powercut_(now);
      break;
  }
}

}  // namespace srcache::fault
