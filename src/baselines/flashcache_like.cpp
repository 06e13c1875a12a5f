#include "baselines/flashcache_like.hpp"

#include <algorithm>
#include <stdexcept>

namespace srcache::baselines {

FlashcacheLike::FlashcacheLike(const FlashcacheConfig& cfg, BlockDevice* ssd,
                               BlockDevice* primary)
    : cfg_(cfg), ssd_(ssd), primary_(primary) {
  if (cfg_.set_blocks == 0)
    throw std::invalid_argument("Flashcache: zero set size");
  // Slot links are u32, with ~0u as the end of a list.
  if (cfg_.cache_blocks > kNil)
    throw std::invalid_argument("Flashcache: cache_blocks must be < 2^32");
  cfg_.cache_blocks -= cfg_.cache_blocks % cfg_.set_blocks;
  if (cfg_.cache_blocks == 0)
    throw std::invalid_argument("Flashcache: cache smaller than one set");
  md_base_ = cfg_.cache_blocks;
  const u64 md_blocks = div_ceil(cfg_.cache_blocks, cfg_.md_entries_per_block);
  if (ssd_->capacity_blocks() < md_base_ + md_blocks)
    throw std::invalid_argument("Flashcache: device too small for metadata");
  slots_.resize(cfg_.cache_blocks);
  sets_.resize(cfg_.cache_blocks / cfg_.set_blocks);
}

u64 FlashcacheLike::set_of(u64 lba) const {
  // dm-flashcache maps consecutive backing regions to one set
  // (dbn / associativity), preserving spatial locality within a set so
  // per-set destaging can merge neighbouring blocks.
  return (lba / cfg_.set_blocks) % sets_.size();
}

void FlashcacheLike::move_to(u32 slot, List list) {
  Slot& s = slots_[slot];
  Set& set = sets_[slot / cfg_.set_blocks];
  if (s.lba != kInvalid) {  // resident: unlink from its list
    (s.prev == kNil ? set.head[s.list] : slots_[s.prev].next) = s.next;
    (s.next == kNil ? set.tail[s.list] : slots_[s.next].prev) = s.prev;
    if (s.list == kDirty) {
      set.dirty--;
      dirty_count_--;
    }
  }
  s.prev = set.tail[list];
  s.next = kNil;
  (s.prev == kNil ? set.head[list] : slots_[s.prev].next) = slot;
  set.tail[list] = slot;
  s.list = list;
  if (list == kDirty) {
    set.dirty++;
    dirty_count_++;
  }
}

SimTime FlashcacheLike::write_metadata(SimTime now, u64 slot) {
  // One 4 KiB metadata-sector write per dirty-data update (§3.1).
  const u64 md_block = md_base_ + slot / cfg_.md_entries_per_block;
  auto r = ssd_->write(now, md_block, 1, {});
  return r.ok() ? r.done : now;
}

void FlashcacheLike::maybe_trickle_destage(SimTime now, u64 set) {
  // Flashcache cleans the accessed set toward dirty_thresh_pct (per-set
  // accounting, like flashcache_clean_set); it tolerates overshoot rather
  // than blocking the foreground write.
  const Set& st = sets_[set];
  if (static_cast<double>(st.dirty) <=
      cfg_.dirty_thresh_pct * static_cast<double>(cfg_.set_blocks)) {
    return;
  }
  // Oldest dirty blocks of the set first.
  victims_.clear();
  for (u32 i = st.head[kDirty];
       i != kNil && victims_.size() < cfg_.destage_batch; i = slots_[i].next)
    victims_.push_back({slots_[i].lba, i});
  set_slot_visits_ += victims_.size();
  for (const Victim& v : victims_)  // keeping their ticks
    move_to(static_cast<u32>(v.block), kCleaned);
  // A kcached-style cleaner writing back in dbn order: the set holds a
  // contiguous backing region, so sorted victims merge into few primary
  // writes.
  destage_runs(*ssd_, *primary_, now, victims_, tags_, [&](const Victim& v) {
    stats_.destage_blocks++;
    write_metadata(now, v.block);
  });
}

u64 FlashcacheLike::allocate_slot(SimTime now, u64 lba, SimTime* done) {
  const u64 set = set_of(lba);
  Set& st = sets_[set];
  // Prefer an unused slot, then the LRU clean slot, then the LRU dirty.
  u32 victim = kNil;
  if (st.used < cfg_.set_blocks) {
    victim = static_cast<u32>(set * cfg_.set_blocks + st.used++);
    set_slot_visits_++;
  } else {
    for (List list : {kClean, kCleaned}) {
      const u32 head = st.head[list];
      if (head == kNil) continue;
      set_slot_visits_++;
      if (victim == kNil || slots_[head].tick < slots_[victim].tick)
        victim = head;
    }
    if (victim == kNil) {
      victim = st.head[kDirty];
      set_slot_visits_++;
      const SimTime t =
          destage_one(*ssd_, *primary_, now, slots_[victim].lba, victim);
      stats_.destage_blocks++;
      *done = std::max({*done, t, write_metadata(t, victim)});
    }
    // A dirty victim is clean once destaged, so it counts as dropped too.
    map_.erase(slots_[victim].lba);
    stats_.dropped_clean_blocks++;
  }
  move_to(victim, kClean);
  Slot& s = slots_[victim];
  s.lba = lba;
  s.tick = ++tick_;
  map_[lba] = victim;
  return victim;
}

SimTime FlashcacheLike::submit(const cache::AppRequest& req) {
  const SimTime now = req.now;
  SimTime done = now;
  if (req.is_write) {
    stats_.app_write_ops++;
    stats_.app_write_blocks += req.nblocks;
  } else {
    stats_.app_read_ops++;
    stats_.app_read_blocks += req.nblocks;
  }

  for (u32 i = 0; i < req.nblocks; ++i) {
    const u64 lba = req.lba + i;
    const u64* cached = map_.find(lba);
    if (req.is_write) {
      const u64 tag = req.tags != nullptr ? req.tags[i]
                                          : blockdev::make_tag(lba, ++tick_);
      u64 slot;
      if (cached != nullptr) {
        stats_.write_hit_blocks++;
        slot = *cached;
        slots_[slot].tick = ++tick_;
      } else {
        stats_.write_new_blocks++;
        slot = allocate_slot(now, lba, &done);
      }
      move_to(static_cast<u32>(slot), cfg_.write_back ? kDirty : kClean);
      auto w = ssd_->write(now, slot, 1, std::span<const u64>(&tag, 1));
      if (w.ok()) done = std::max(done, w.done);
      if (cfg_.write_back) {
        done = std::max(done, write_metadata(now, slot));
        maybe_trickle_destage(now, set_of(lba));
      } else {
        done = write_through(*primary_, now, lba,
                             std::span<const u64>(&tag, 1), done);
      }
    } else {  // read
      if (cached != nullptr) {
        stats_.read_hit_blocks++;
        const u64 slot = *cached;
        slots_[slot].tick = ++tick_;
        move_to(static_cast<u32>(slot),
                slots_[slot].list == kDirty ? kDirty : kClean);
        u64 tag = 0;
        auto r = ssd_->read(now, slot, 1, std::span<u64>(&tag, 1));
        if (r.ok()) done = std::max(done, r.done);
        if (req.tags_out != nullptr) req.tags_out[i] = tag;
      } else {
        stats_.read_miss_blocks++;
        u64 tag = 0;
        auto r = primary_->read(now, lba, 1, std::span<u64>(&tag, 1));
        if (r.ok()) done = std::max(done, r.done);
        stats_.fetch_blocks++;
        if (req.tags_out != nullptr) req.tags_out[i] = tag;
        // Load into the cache: a clean-data write plus an in-memory
        // metadata update only (§3.1).
        const u64 slot = allocate_slot(now, lba, &done);
        ssd_->write(now, slot, 1, std::span<const u64>(&tag, 1));
      }
    }
  }
  return done;
}

SimTime FlashcacheLike::flush(SimTime now) {
  // Flashcache acknowledges flushes immediately without forwarding them —
  // fast but vulnerable to file-system inconsistency (§3.1).
  stats_.app_flushes++;
  return now;
}

}  // namespace srcache::baselines
