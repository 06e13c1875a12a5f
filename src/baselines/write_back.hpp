// The write-back core BcacheLike and FlashcacheLike share (§3.1, §5.4). Both
// keep dirty blocks on the cache device and copy them to primary storage,
// and both acknowledge a write-through only once primary storage holds it
// durably. They differ in where a block sits (log buckets or sets) and in
// how its metadata persists (a flushed journal or one metadata write per
// dirty write), so each model passes its per-block work in as a lambda.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "block/block_device.hpp"
#include "common/runs.hpp"

namespace srcache::baselines {

using blockdev::BlockDevice;
using sim::SimTime;

// A dirty block to destage: its primary address and its cache-device block.
struct Victim {
  u64 lba = 0;
  u64 block = 0;
};

// One writeback-thread pass: sorts `victims` by lba, reads every block
// from the cache device at `now` and hands it to `per_block`, then writes
// each run of consecutive lbas to primary storage in one command, issued
// when the run's last read completes. The primary writes run in the
// background lane, yielding to misses, and never gate the application's
// ack. `tags` is the caller's scratch buffer.
template <typename PerBlock>
void destage_runs(BlockDevice& cache, BlockDevice& primary, SimTime now,
                  std::vector<Victim>& victims, std::vector<u64>& tags,
                  PerBlock&& per_block) {
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) { return a.lba < b.lba; });
  const auto adjacent = [](const Victim& a, const Victim& b) {
    return b.lba == a.lba + 1;
  };
  primary.set_background(true);
  common::for_each_run(victims, adjacent, [&](size_t i, size_t n) {
    tags.assign(n, 0);
    SimTime read_done = now;
    for (size_t k = 0; k < n; ++k) {
      const Victim& v = victims[i + k];
      auto r = cache.read(now, v.block, 1, std::span<u64>(&tags[k], 1));
      if (r.ok()) read_done = std::max(read_done, r.done);
      per_block(v);
    }
    primary.write(read_done, victims[i].lba, static_cast<u32>(n), tags);
  });
  primary.set_background(false);
}

// A synchronous destage of one block: the cache-device read, then the
// primary write. Returns when the write completes.
inline SimTime destage_one(BlockDevice& cache, BlockDevice& primary,
                           SimTime now, u64 lba, u64 block) {
  u64 tag = 0;
  auto r = cache.read(now, block, 1, std::span<u64>(&tag, 1));
  const SimTime t = r.ok() ? r.done : now;
  auto w = primary.write(t, lba, 1, std::span<const u64>(&tag, 1));
  return w.ok() ? w.done : t;
}

// Write-through with FUA semantics: the primary write and then a primary
// flush, so the target's volatile cache cannot absorb the write. Returns
// the ack time, `done` or later.
inline SimTime write_through(BlockDevice& primary, SimTime now, u64 lba,
                             std::span<const u64> tags, SimTime done) {
  auto w = primary.write(now, lba, static_cast<u32>(tags.size()), tags);
  if (w.ok()) done = std::max(done, w.done);
  auto f = primary.flush(done);
  if (f.ok()) done = std::max(done, f.done);
  return done;
}

}  // namespace srcache::baselines
