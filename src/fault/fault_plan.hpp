// FaultPlan: a deterministic, scripted schedule of device faults.
//
// The paper's reliability claims (§4.3, Table 10) rest on the cache
// surviving the faults commodity SSDs actually produce: whole-device
// fail-stop, latent sector errors, silent corruption (Bairavasundaram et
// al.), degraded interconnects, and power cuts that tear in-flight metadata
// writes. A FaultPlan scripts those faults at virtual-time or op-count
// triggers so every scenario is reproducible bit-for-bit under a seed and
// can be swept as a CI matrix instead of hand-written one-off tests.
//
// Plan syntax (one event per ';'-separated clause, whitespace-insensitive):
//
//   at=<trigger> <action> [key=value ...]
//
//   trigger:  "2s" | "500ms" | "30us" (virtual time into the measurement
//             window) or "ops:1000" (after the 1000th measured request).
//   actions:
//     fail     dev=ssd<i>|primary            whole-device fail-stop
//     heal     dev=ssd<i>|primary            undo an earlier fail (transient
//              fault: the device's contents survive)
//     replace  dev=ssd<i>                    physical drive swap: installs a
//              blank device (contents cleared, FTL state reset). The rebuild
//              engine (raid/rebuild.hpp) reconstructs it in the background.
//     spare    [count=N]                     add N (default 1) hot spares to
//              the rebuild manager's pool
//     corrupt  dev=ssd<i> lba=<a>..<b> [count=N]
//              silent bit flips; all blocks of [a,b), or N seeded-random
//              picks from it when count is given
//     latent   dev=ssd<i> lba=<a>..<b>       latent sector errors: reads of
//              the range return media errors until the range is rewritten
//     degrade  dev=primary factor=<f> for=<dur>
//              interconnect degradation: link transfers and RTT are
//              multiplied by f for the duration
//     powercut                               a power cut for DRAM state:
//              benches drop the tier's dirty set; media cuts come from
//              blockdev::PowerRail (see crash_harness.hpp)
//
// Example: "at=2s fail dev=ssd1; at=ops:5000 corrupt dev=ssd0
//           lba=1024..4096 count=16; at=4s degrade dev=primary factor=8
//           for=1s"
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace srcache::fault {

enum class FaultKind : u8 {
  kFailStop,
  kHeal,
  kReplace,
  kSpare,
  kCorrupt,
  kLatent,
  kLinkDegrade,
  kPowerCut,
};

const char* to_string(FaultKind k);

// When an event fires: at a virtual time into the measurement window, or
// once a number of measured requests have been issued.
struct Trigger {
  enum class Kind : u8 { kTime, kOps };
  Kind kind = Kind::kTime;
  sim::SimTime at_time = 0;  // kTime: ns into the window
  u64 at_ops = 0;            // kOps: measured-request count

  [[nodiscard]] bool due(sim::SimTime rel_now, u64 ops) const {
    return kind == Kind::kTime ? rel_now >= at_time : ops >= at_ops;
  }
};

// Target device: SSD index, or kPrimary for the backing store / its link.
inline constexpr int kPrimaryDev = -1;

struct FaultEvent {
  Trigger trigger;
  FaultKind kind = FaultKind::kFailStop;
  int dev = kPrimaryDev;
  u64 lba_begin = 0;  // corrupt/latent: [lba_begin, lba_end)
  u64 lba_end = 0;
  u64 count = 0;        // corrupt: random picks from the range (0 = all)
  double factor = 1.0;  // degrade: service-time multiplier
  sim::SimTime duration = 0;  // degrade: how long the window lasts

  [[nodiscard]] std::string describe() const;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // Parses the plan syntax above. Rejects unknown actions, malformed
  // triggers, empty/backwards ranges and out-of-range numbers with a
  // message naming the offending clause.
  static Result<FaultPlan> parse(const std::string& spec, u64 seed = 1);

  // Convenience: parse-or-throw for statically known specs (tests, benches).
  static FaultPlan parse_or_die(const std::string& spec, u64 seed = 1);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] u64 seed() const { return seed_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::string describe() const;

  void add(const FaultEvent& ev) { events_.push_back(ev); }

 private:
  std::vector<FaultEvent> events_;
  u64 seed_ = 1;
};

}  // namespace srcache::fault
