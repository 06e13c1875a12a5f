#include "baselines/bcache_like.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/runs.hpp"

namespace srcache::baselines {

BcacheLike::BcacheLike(const BcacheConfig& cfg, BlockDevice* ssd,
                       BlockDevice* primary)
    : cfg_(cfg), ssd_(ssd), primary_(primary) {
  if (cfg_.bucket_blocks == 0)
    throw std::invalid_argument("Bcache: zero bucket size");
  cfg_.cache_blocks -= cfg_.cache_blocks % cfg_.bucket_blocks;
  if (cfg_.cache_blocks == 0)
    throw std::invalid_argument("Bcache: cache smaller than one bucket");
  journal_base_ = cfg_.cache_blocks;
  if (ssd_->capacity_blocks() < journal_base_ + cfg_.journal_blocks)
    throw std::invalid_argument("Bcache: device too small for journal");
  buckets_.resize(cfg_.cache_blocks / cfg_.bucket_blocks);
}

u64 BcacheLike::take_bucket(SimTime now, SimTime* done) {
  // Invalidate the LRU bucket (the next in the log), destaging its dirty
  // blocks first (§3.1).
  const u64 b = (open_bucket_ + 1) % buckets_.size();
  if (b == open_bucket_)
    throw std::logic_error("Bcache: no reclaimable bucket");
  if (buckets_[b].fill > 0) *done = std::max(*done, reclaim_bucket(now, b));
  return b;
}

SimTime BcacheLike::reclaim_bucket(SimTime now, u64 bucket) {
  Bucket& bk = buckets_[bucket];
  SimTime t = now;
  bool journaled = false;
  for (u64 lba : bk.lbas) {
    const Entry* e = map_.find(lba);
    if (e == nullptr) continue;
    if (e->block / cfg_.bucket_blocks != bucket) continue;  // moved since
    if (e->dirty) {
      t = std::max(t, destage_one(*ssd_, *primary_, now, lba, e->block));
      dirty_count_--;
      stats_.destage_blocks++;
      journaled = true;
    } else {
      stats_.dropped_clean_blocks++;
    }
    map_.erase(lba);
  }
  if (journaled) t = std::max(t, journal_commit(t));
  bk.fill = 0;
  bk.lbas.clear();
  return t;
}

SimTime BcacheLike::destage_some(SimTime now, u32 max_blocks) {
  // Like the real writeback thread, victims are processed in disk-offset
  // order (bcache keys its writeback keybuf by backing-device offset), so
  // contiguous dirty blocks merge into single primary writes.
  victims_.clear();
  while (victims_.size() < max_blocks &&
         dirty_ratio() > cfg_.writeback_percent && !dirty_fifo_.empty()) {
    const u64 lba = dirty_fifo_.front();
    dirty_fifo_.pop_front();
    const Entry* e = map_.find(lba);
    if (e == nullptr || !e->dirty) continue;  // stale entry
    // A block rewritten while dirty has one FIFO entry per write; take it
    // once, or its destage would count it clean twice.
    if (std::any_of(victims_.begin(), victims_.end(),
                    [lba](const Victim& v) { return v.lba == lba; }))
      continue;
    victims_.push_back({lba, e->block});
  }
  if (victims_.empty()) return now;
  destage_runs(*ssd_, *primary_, now, victims_, tags_, [&](const Victim& v) {
    Entry& e = map_.at(v.lba);
    e.dirty = false;
    dirty_count_--;
    stats_.destage_blocks++;
  });
  return std::max(now, journal_commit(now));
}

Status BcacheLike::verify_consistency() const {
  u64 dirty = 0;
  for (const auto& [lba, e] : map_) dirty += e.dirty ? 1 : 0;
  if (dirty != dirty_count_)
    return Status(ErrorCode::kCorrupted, "dirty count drifted from the map");
  for (const Bucket& bk : buckets_)
    if (bk.fill > cfg_.bucket_blocks)
      return Status(ErrorCode::kCorrupted, "bucket filled past its end");
  return Status::ok();
}

void BcacheLike::append(SimTime now, u64 lba0, std::span<const u64> tags,
                        bool dirty, SimTime* done) {
  // The log may wrap buckets; for simplicity a piece never straddles one:
  // if the open bucket cannot hold it, it is closed with dead space (bcache
  // similarly allocates whole-extent). A run longer than a bucket goes in
  // bucket-sized pieces, each mapped at its own blocks.
  for (size_t off = 0; off < tags.size(); off += cfg_.bucket_blocks) {
    const auto n = static_cast<u32>(
        std::min<size_t>(cfg_.bucket_blocks, tags.size() - off));
    if (open_bucket_ == ~0ull ||
        buckets_[open_bucket_].fill + n > cfg_.bucket_blocks) {
      open_bucket_ = take_bucket(now, done);
    }
    Bucket& bk = buckets_[open_bucket_];
    const u64 block = open_bucket_ * cfg_.bucket_blocks + bk.fill;
    bk.fill += n;
    auto w = ssd_->write(now, block, n, tags.subspan(off, n));
    if (w.ok()) *done = std::max(*done, w.done);
    for (u32 i = 0; i < n; ++i) {
      const u64 lba = lba0 + off + i;
      bk.lbas.push_back(lba);
      map_[lba] = Entry{block + i, dirty};
      if (dirty) {
        dirty_count_++;
        dirty_fifo_.push_back(lba);
      }
    }
  }
}

SimTime BcacheLike::journal_commit(SimTime now) {
  // Group commit: a request arriving while a commit is on the device joins
  // the next one, which starts when the current commit completes. The
  // journal write is a single 4 KiB block followed by a flush — the cost
  // the paper identifies as Bcache's bottleneck (§3.1, Table 2).
  auto do_commit = [&](SimTime start) {
    auto w = ssd_->write(start, journal_base_ + journal_cursor_, 1, {});
    journal_cursor_ = (journal_cursor_ + 1) % cfg_.journal_blocks;
    SimTime t = w.ok() ? w.done : start;
    if (cfg_.flush_on_commit) {
      auto f = ssd_->flush(t);
      if (f.ok()) t = f.done;
    }
    return t;
  };
  if (now >= commit_pending_done_) {
    // Device idle (journal-wise): commit immediately.
    commit_inflight_done_ = do_commit(now);
    commit_pending_done_ = commit_inflight_done_;
    return commit_inflight_done_;
  }
  if (commit_pending_done_ <= commit_inflight_done_) {
    // Join a new group commit queued behind the in-flight one.
    commit_pending_done_ = do_commit(commit_inflight_done_);
  }
  return commit_pending_done_;
}

SimTime BcacheLike::submit(const cache::AppRequest& req) {
  const SimTime now = req.now;
  SimTime done = now;
  if (req.is_write) {
    stats_.app_write_ops++;
    stats_.app_write_blocks += req.nblocks;

    std::vector<u64> tags(req.nblocks);
    for (u32 i = 0; i < req.nblocks; ++i) {
      tags[i] = req.tags != nullptr
                    ? req.tags[i]
                    : blockdev::make_tag(req.lba + i, ++tag_seq_);
    }
    // Invalidate any previous versions, then append the run to the log.
    for (u32 i = 0; i < req.nblocks; ++i) {
      if (const Entry* e = map_.find(req.lba + i)) {
        stats_.write_hit_blocks++;
        if (e->dirty) dirty_count_--;
        map_.erase(req.lba + i);
      } else {
        stats_.write_new_blocks++;
      }
    }
    append(now, req.lba, tags, cfg_.write_back, &done);
    if (cfg_.write_back) {
      // Metadata is durable before the ack: journal + flush (§3.1). The
      // commit is joined at arrival time (requests in flight together share
      // a group commit, like the real journal).
      done = std::max(done, journal_commit(now));
      done = std::max(done, destage_some(now, cfg_.destage_batch));
    } else {
      done = write_through(*primary_, now, req.lba, tags, done);
    }
    return done;
  }

  // Read path.
  stats_.app_read_ops++;
  stats_.app_read_blocks += req.nblocks;
  struct HitRead {
    u64 block;
    u32 idx;
  };
  std::vector<HitRead> hits;
  std::vector<std::pair<u64, u32>> miss_runs;
  for (u32 i = 0; i < req.nblocks; ++i) {
    const u64 lba = req.lba + i;
    if (const Entry* e = map_.find(lba)) {
      stats_.read_hit_blocks++;
      hits.push_back({e->block, i});
    } else {
      stats_.read_miss_blocks++;
      if (!miss_runs.empty() &&
          miss_runs.back().first + miss_runs.back().second == lba) {
        miss_runs.back().second++;
      } else {
        miss_runs.emplace_back(lba, 1);
      }
    }
  }
  // Cache hits: merge contiguous log locations into single reads.
  std::sort(hits.begin(), hits.end(), [](const HitRead& a, const HitRead& b) {
    return a.block < b.block;
  });
  std::vector<u64> buf;
  const auto adjacent = [](const HitRead& a, const HitRead& b) {
    return b.block == a.block + 1;
  };
  common::for_each_run(hits, adjacent, [&](size_t i, size_t n) {
    buf.resize(n);
    auto r = ssd_->read(now, hits[i].block, static_cast<u32>(n),
                        std::span<u64>(buf.data(), buf.size()));
    if (r.ok()) {
      done = std::max(done, r.done);
      if (req.tags_out != nullptr)
        for (size_t k = 0; k < n; ++k) req.tags_out[hits[i + k].idx] = buf[k];
    }
  });
  // Misses: fetch and insert as clean data (in-memory metadata only).
  std::vector<u64> fetched;
  for (const auto& [lba, cnt] : miss_runs) {
    fetched.assign(cnt, 0);
    auto r = primary_->read(now, lba, cnt, std::span<u64>(fetched.data(), cnt));
    if (!r.ok()) continue;
    done = std::max(done, r.done);
    stats_.fetch_blocks += cnt;
    if (req.tags_out != nullptr)
      for (u32 k = 0; k < cnt; ++k)
        req.tags_out[lba - req.lba + k] = fetched[k];
    SimTime fill_done = now;  // off the ack path
    append(now, lba, fetched, /*dirty=*/false, &fill_done);
  }
  return done;
}

SimTime BcacheLike::flush(SimTime now) {
  // Bcache honors flushes: forward to both devices.
  stats_.app_flushes++;
  SimTime t = now;
  auto f1 = ssd_->flush(now);
  if (f1.ok()) t = std::max(t, f1.done);
  auto f2 = primary_->flush(now);
  if (f2.ok()) t = std::max(t, f2.done);
  return t;
}

}  // namespace srcache::baselines
