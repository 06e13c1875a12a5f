// A small SRC rig over content-tracked MemDisks: 4 SSDs with 32 KiB chunks
// and 256 KiB segment groups over a 1 GiB primary, so sealing, GC, repair
// and recovery all trigger within a few thousand requests and CRC checks
// have real content to verify. The unit tests, the crash-consistency
// harness and the fault matrix all build on it.
#pragma once

#include <memory>
#include <vector>

#include "block/mem_disk.hpp"
#include "src_cache/src_cache.hpp"

namespace srcache::src {

inline SrcConfig small_config(raid::RaidLevel raid = raid::RaidLevel::kRaid5) {
  SrcConfig cfg;
  cfg.num_ssds = 4;
  cfg.chunk_bytes = 32 * KiB;          // 8 blocks: MS + 6 slots + ME
  cfg.erase_group_bytes = 256 * KiB;   // 8 segments per SG
  cfg.region_bytes_per_ssd = 4 * MiB;  // 16 SGs (SG 0 = superblock)
  cfg.twait = 1 * sim::kSec;           // effectively off unless tested
  cfg.raid = raid;
  return cfg;
}

struct SmallRig {
  // The devices' shared power supply: it logs every media command, from
  // the format on, and cuts power where a crash test arms it. The devices
  // hold its address, so a rig is neither copied nor moved.
  blockdev::PowerRail rail;
  std::vector<std::unique_ptr<blockdev::MemDisk>> ssds;
  std::unique_ptr<blockdev::MemDisk> primary;
  std::unique_ptr<SrcCache> cache;
  SrcConfig cfg;

  // Builds the devices and a freshly formatted cache.
  explicit SmallRig(const SrcConfig& c = small_config()) : cfg(c) {
    blockdev::MemDiskConfig fast;
    fast.capacity_blocks = cfg.region_bytes_per_ssd / kBlockSize + 64;
    fast.op_latency = 20 * sim::kUs;
    fast.bandwidth_mbps = 500.0;
    fast.flush_latency = 4 * sim::kMs;
    for (u32 i = 0; i < cfg.num_ssds; ++i)
      ssds.push_back(std::make_unique<blockdev::MemDisk>(fast));
    blockdev::MemDiskConfig slow;
    slow.capacity_blocks = 1 * GiB / kBlockSize;
    slow.op_latency = 5 * sim::kMs;
    slow.bandwidth_mbps = 110.0;
    primary = std::make_unique<blockdev::MemDisk>(slow);
    for (auto& s : ssds) s->set_power_rail(&rail);
    primary->set_power_rail(&rail);
    reattach();
    cache->format(0);
  }
  SmallRig(const SmallRig&) = delete;
  SmallRig& operator=(const SmallRig&) = delete;

  [[nodiscard]] std::vector<blockdev::BlockDevice*> ssd_ptrs() const {
    std::vector<blockdev::BlockDevice*> devs;
    for (const auto& s : ssds) devs.push_back(s.get());
    return devs;
  }

  // Builds a fresh SrcCache instance over the same devices (crash model:
  // all in-memory state is discarded, the media survives).
  void reattach() {
    cache = std::make_unique<SrcCache>(cfg, ssd_ptrs(), primary.get());
  }
};

}  // namespace srcache::src
