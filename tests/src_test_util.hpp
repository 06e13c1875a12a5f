// Shared rig for SRC cache tests: the small MemDisk rig
// (src_cache/small_rig.hpp) plus one-request read/write helpers.
#pragma once

#include "src_cache/small_rig.hpp"

namespace srcache::src::testutil {

using src::small_config;

struct Rig : SmallRig {
  using SmallRig::SmallRig;

  sim::SimTime write(sim::SimTime now, u64 lba, u32 n = 1,
                     const u64* tags = nullptr) {
    cache::AppRequest r;
    r.now = now;
    r.is_write = true;
    r.lba = lba;
    r.nblocks = n;
    r.tags = tags;
    return cache->submit(r);
  }

  sim::SimTime read(sim::SimTime now, u64 lba, u32 n = 1, u64* out = nullptr) {
    cache::AppRequest r;
    r.now = now;
    r.lba = lba;
    r.nblocks = n;
    r.tags_out = out;
    return cache->submit(r);
  }
};

}  // namespace srcache::src::testutil
