// RAID levels shared by both layers that stripe across devices: RaidDevice
// (the software RAID under the Bcache5/Flashcache5 baselines, §3.2) and
// SRC's own segment stripes (§4.1, Table 10; RAID-1 is our extension).
#pragma once

#include "common/types.hpp"

namespace srcache::raid {

enum class RaidLevel { kRaid0, kRaid1, kRaid4, kRaid5 };

const char* to_string(RaidLevel level);

// Data columns of one stripe over `devices` members: RAID-1 mirrors in
// pairs, RAID-4/5 spend one column on parity.
constexpr u64 data_cols(RaidLevel level, u64 devices) {
  switch (level) {
    case RaidLevel::kRaid0: return devices;
    case RaidLevel::kRaid1: return devices / 2;
    case RaidLevel::kRaid4:
    case RaidLevel::kRaid5: return devices - 1;
  }
  return 0;
}

}  // namespace srcache::raid
