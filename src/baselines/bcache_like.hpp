// BcacheLike: a model of Bcache at the level the paper analyses it (§3.1,
// Table 5):
//  * bucket-based log layout (2 MiB buckets): writes append sequentially
//    into the open bucket, and the buckets form one circular log;
//  * write-back: dirty data is written to the cache, then the metadata is
//    journaled **with a flush command** — group-committed like the real
//    B+tree journal, and the dominant cost on commodity SSDs;
//  * clean-data metadata stays in memory only (clean contents are lost on
//    restart);
//  * writeback_percent: destaging starts immediately once the dirty ratio
//    exceeds the threshold;
//  * application flushes are honored (forwarded to the devices).
#pragma once

#include <deque>
#include <vector>

#include "baselines/write_back.hpp"
#include "cache/cache_device.hpp"
#include "common/flat_map.hpp"
#include "common/result.hpp"

namespace srcache::baselines {

struct BcacheConfig {
  u64 cache_blocks = 0;
  u32 bucket_blocks = 512;  // 2 MiB default
  double writeback_percent = 0.10;
  bool write_back = true;   // false = write-through (Table 2)
  bool flush_on_commit = true;  // issue flush with every journal commit
  u32 destage_batch = 32;
  u32 journal_blocks = 256;  // rotating journal region
};

class BcacheLike final : public cache::CacheDevice {
 public:
  BcacheLike(const BcacheConfig& cfg, BlockDevice* ssd, BlockDevice* primary);

  SimTime submit(const cache::AppRequest& req) override;
  SimTime flush(SimTime now) override;
  [[nodiscard]] const cache::CacheStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] u64 cached_blocks() const override { return map_.size(); }

  [[nodiscard]] double dirty_ratio() const {
    return static_cast<double>(dirty_count_) /
           static_cast<double>(cfg_.cache_blocks);
  }

  // Checks that the dirty count equals the dirty map entries and that no
  // bucket is filled past its end.
  [[nodiscard]] Status verify_consistency() const;

 private:
  struct Entry {
    u64 block = 0;  // location on the cache device
    bool dirty = false;
  };
  struct Bucket {
    u32 fill = 0;   // blocks appended so far
    std::vector<u64> lbas;  // inserted lbas (validated against map_ on use)
  };

  // Appends tags.size() blocks to the log and maps lba0.. to them, dirty
  // (queued for writeback) or clean; folds the writes' completion into
  // *done.
  void append(SimTime now, u64 lba0, std::span<const u64> tags, bool dirty,
              SimTime* done);
  // Returns the bucket after the open one, reclaiming it first if it holds
  // blocks. Buckets are taken in cyclic order, so that bucket is always the
  // oldest allocation.
  u64 take_bucket(SimTime now, SimTime* done);
  SimTime reclaim_bucket(SimTime now, u64 bucket);
  SimTime destage_some(SimTime now, u32 max_blocks);
  // Group-committed journal write (+flush); returns the ack time for a
  // request joining the commit at `now`.
  SimTime journal_commit(SimTime now);

  BcacheConfig cfg_;
  BlockDevice* ssd_;
  BlockDevice* primary_;
  std::vector<Bucket> buckets_;
  u64 open_bucket_ = ~0ull;  // none yet, so the first bucket taken is 0
  common::FlatMap<Entry> map_;
  std::deque<u64> dirty_fifo_;
  u64 dirty_count_ = 0;
  u64 journal_base_;
  u32 journal_cursor_ = 0;
  SimTime commit_inflight_done_ = 0;  // commit currently on the device
  SimTime commit_pending_done_ = 0;   // group commit queued behind it
  u64 tag_seq_ = 0;
  std::vector<Victim> victims_;  // writeback scratch
  std::vector<u64> tags_;        // writeback scratch: one run's tags
  cache::CacheStats stats_;
};

}  // namespace srcache::baselines
