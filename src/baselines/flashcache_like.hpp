// FlashcacheLike: a faithful model of Facebook's Flashcache at the level
// the paper analyses it (§3.1, Table 5):
//  * set-associative placement (2 MiB sets of 4 KiB blocks by default);
//  * write-back with dirty_thresh_pct, but *tolerant* — destaging trickles
//    and the dirty ratio may overshoot the threshold;
//  * a metadata block write accompanies every dirty-data write; clean-data
//    metadata lives only in memory (clean data is lost on restart);
//  * application flush commands are ignored entirely.
#pragma once

#include <vector>

#include "baselines/write_back.hpp"
#include "cache/cache_device.hpp"
#include "common/flat_map.hpp"

namespace srcache::baselines {

struct FlashcacheConfig {
  u64 cache_blocks = 0;        // data blocks on the cache device
  u32 set_blocks = 512;        // 2 MiB default set size
  double dirty_thresh_pct = 0.20;
  bool write_back = true;      // false = write-through (Table 2)
  u32 destage_batch = 8;       // blocks destaged per overshooting write
  u32 md_entries_per_block = 128;
};

class FlashcacheLike final : public cache::CacheDevice {
 public:
  // `ssd` may be a single SimSsd or a RaidDevice (Flashcache5). The device
  // must hold cache_blocks plus the metadata partition.
  FlashcacheLike(const FlashcacheConfig& cfg, BlockDevice* ssd,
                 BlockDevice* primary);

  SimTime submit(const cache::AppRequest& req) override;
  SimTime flush(SimTime now) override;  // ignored by design
  [[nodiscard]] const cache::CacheStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] u64 cached_blocks() const override { return map_.size(); }

  [[nodiscard]] double dirty_ratio() const {
    return static_cast<double>(dirty_count_) /
           static_cast<double>(cfg_.cache_blocks);
  }
  [[nodiscard]] u64 cache_blocks() const { return cfg_.cache_blocks; }
  // Slots the per-set bookkeeping has examined to place fills, pick victims
  // and pick trickle batches: a deterministic work count.
  [[nodiscard]] u64 set_slot_visits() const { return set_slot_visits_; }

 private:
  // Every resident slot of a set sits on one list, oldest tick at the head:
  // kDirty, kClean (fills and clean touches) or kCleaned (trickle-destaged,
  // keeping their old ticks). Fills and touches take a fresh tick, so they
  // append. A trickle batch is the head of kDirty, and a slot turns dirty
  // only with a fresh tick, so each batch is younger than every slot
  // already on kCleaned and appends in order too. The LRU clean slot is the
  // older of the two clean heads.
  enum List : u8 { kDirty, kClean, kCleaned, kLists };
  static constexpr u32 kNil = ~0u;
  struct Slot {
    u64 lba = kInvalid;
    u64 tick = 0;  // LRU within the set; unique
    u32 prev = kNil;
    u32 next = kNil;
    List list = kClean;
  };
  static_assert(sizeof(Slot) == 32);
  struct Set {
    u32 head[kLists] = {kNil, kNil, kNil};
    u32 tail[kLists] = {kNil, kNil, kNil};
    u32 used = 0;   // unused slots are filled lowest index first
    u32 dirty = 0;  // slots on kDirty
  };
  static constexpr u64 kInvalid = ~0ull;

  [[nodiscard]] u64 set_of(u64 lba) const;
  // Finds or allocates a slot for lba in its set; destages/evicts as
  // needed. Returns the slot index and the time all required I/O finished.
  u64 allocate_slot(SimTime now, u64 lba, SimTime* done);
  // Moves a slot to the tail of `list` in its set, keeping the dirty counts.
  void move_to(u32 slot, List list);
  SimTime write_metadata(SimTime now, u64 slot);
  // Starts the set's background cleaner; it never gates the app ack.
  void maybe_trickle_destage(SimTime now, u64 set);

  FlashcacheConfig cfg_;
  BlockDevice* ssd_;
  BlockDevice* primary_;
  std::vector<Slot> slots_;
  std::vector<Set> sets_;
  common::FlatMap<u64> map_;  // lba -> slot index
  u64 dirty_count_ = 0;
  u64 tick_ = 0;
  u64 md_base_;  // metadata partition start block on the SSD
  u64 set_slot_visits_ = 0;
  std::vector<Victim> victims_;  // trickle scratch: slots being destaged
  std::vector<u64> tags_;        // trickle scratch: one run's tags
  cache::CacheStats stats_;
};

}  // namespace srcache::baselines
