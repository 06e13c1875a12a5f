#include "raid/raid_device.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/runs.hpp"

namespace srcache::raid {

const char* to_string(RaidLevel level) {
  switch (level) {
    case RaidLevel::kRaid0: return "RAID-0";
    case RaidLevel::kRaid1: return "RAID-1";
    case RaidLevel::kRaid4: return "RAID-4";
    case RaidLevel::kRaid5: return "RAID-5";
  }
  return "?";
}

RaidDevice::RaidDevice(const RaidConfig& cfg, std::vector<BlockDevice*> devices)
    : cfg_(cfg), devs_(std::move(devices)) {
  if (devs_.size() < 2) throw std::invalid_argument("RAID needs >= 2 devices");
  if (cfg_.chunk_blocks == 0) throw std::invalid_argument("chunk_blocks must be > 0");
  if (cfg_.level == RaidLevel::kRaid1 && devs_.size() % 2 != 0) {
    throw std::invalid_argument("RAID-1 needs an even device count");
  }
  dev_blocks_ = devs_[0]->capacity_blocks();
  for (auto* d : devs_) dev_blocks_ = std::min(dev_blocks_, d->capacity_blocks());
  // Round to whole stripes.
  dev_blocks_ -= dev_blocks_ % cfg_.chunk_blocks;
  capacity_blocks_ = dev_blocks_ * data_cols(cfg_.level, devs_.size());
}

u64 RaidDevice::stripe_of(u64 lba) const {
  return (lba / cfg_.chunk_blocks) / data_cols(cfg_.level, devs_.size());
}

size_t RaidDevice::parity_dev(u64 stripe) const {
  if (cfg_.level == RaidLevel::kRaid4) return devs_.size() - 1;
  // RAID-5 left-symmetric rotation.
  return (devs_.size() - 1) - (stripe % devs_.size());
}

RaidDevice::Loc RaidDevice::locate(u64 lba) const {
  const u64 chunk = lba / cfg_.chunk_blocks;
  const u64 row = lba % cfg_.chunk_blocks;
  const u64 cols = data_cols(cfg_.level, devs_.size());
  const u64 stripe = chunk / cols;
  const u64 col = chunk % cols;
  switch (cfg_.level) {
    case RaidLevel::kRaid0:
      return {static_cast<size_t>(col), stripe * cfg_.chunk_blocks + row};
    case RaidLevel::kRaid1: {
      const size_t dev = static_cast<size_t>(2 * col);
      return {dev, stripe * cfg_.chunk_blocks + row, dev + 1};
    }
    case RaidLevel::kRaid4:
    case RaidLevel::kRaid5: {
      const size_t pdev = parity_dev(stripe);
      const size_t dev = col >= pdev ? static_cast<size_t>(col) + 1
                                     : static_cast<size_t>(col);
      return {dev, stripe * cfg_.chunk_blocks + row};
    }
  }
  throw std::logic_error("bad raid level");
}

int RaidDevice::redundancy() const {
  // RAID-1 survives one loss per mirror pair; conservatively 1.
  return cfg_.level == RaidLevel::kRaid0 ? 0 : 1;
}

bool RaidDevice::failed() const {
  int dead = 0;
  for (auto* d : devs_) dead += d->failed() ? 1 : 0;
  return dead > redundancy();
}

void RaidDevice::corrupt(u64 lba) {
  const Loc loc = locate(lba);
  devs_[loc.dev]->corrupt(loc.off);
}

IoResult RaidDevice::run_members(MemberOp op, std::vector<Cell>& cells,
                                 DeviceStats& stats, SimTime now,
                                 const Payload* payload) {
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    return a.dev != b.dev ? a.dev < b.dev : a.off < b.off;
  });
  const auto adjacent = [](const Cell& a, const Cell& b) {
    return b.dev == a.dev && b.off == a.off + 1;
  };
  IoResult out{now, ErrorCode::kOk};
  common::for_each_run(cells, adjacent, [&](size_t first, size_t cnt) {
    const std::span<Cell> run(cells.data() + first, cnt);
    BlockDevice* dev = devs_[run[0].dev];
    const auto n = static_cast<u32>(cnt);
    run_buf_.resize(cnt);
    IoResult r;
    if (op == MemberOp::kRead) {
      r = dev->read(now, run[0].off, n, run_buf_);
    } else if (op == MemberOp::kWrite) {
      for (size_t k = 0; k < cnt; ++k) run_buf_[k] = run[k].tag;
      r = dev->write(now, run[0].off, n, run_buf_);
    } else if (op == MemberOp::kPayload) {
      r = dev->write_payload(now, run[0].off, *payload);
    } else {
      r = dev->trim(now, run[0].off, cnt);
    }
    if (!r.ok()) {
      out.error = r.error;
      return;
    }
    out.done = std::max(out.done, r.done);
    if (op == MemberOp::kRead) {
      for (size_t k = 0; k < cnt; ++k) *run[k].out = run_buf_[k];
      stats.read_ops++;
      stats.read_blocks += cnt;
    } else if (op != MemberOp::kTrim) {
      stats.write_ops++;
      stats.write_blocks += cnt;
    }
  });
  return out;
}

IoResult RaidDevice::read(SimTime now, u64 lba, u32 n, std::span<u64> tags_out) {
  if (lba + n > capacity_blocks_) return {now, ErrorCode::kInvalidArgument};
  const u32 sp = (span_ != nullptr && span_->sampling())
                     ? span_->begin_span("raid.read", now)
                     : obs::kNoSpan;
  auto finish = [&](IoResult r) {
    if (sp != obs::kNoSpan) span_->end_span(sp, r.done, n);
    return r;
  };
  if (tags_out.empty()) {
    discard_.resize(n);
    tags_out = discard_;
  }
  cells_.clear();
  bool any_dead = false;
  for (u32 i = 0; i < n; ++i) {
    Loc loc = locate(lba + i);
    if (devs_[loc.dev]->failed()) {
      if (cfg_.level == RaidLevel::kRaid1 && !devs_[loc.mirror]->failed()) {
        loc.dev = loc.mirror;
      } else {
        any_dead = true;
        continue;  // handled in the reconstruction pass below
      }
    } else if (cfg_.level == RaidLevel::kRaid1 && !devs_[loc.mirror]->failed() &&
               (mirror_rr_++ & 1) != 0) {
      loc.dev = loc.mirror;  // balance reads across mirrors
    }
    cells_.push_back({loc.dev, loc.off, 0, &tags_out[i]});
  }
  const IoResult r = run_members(MemberOp::kRead, cells_, stats_, now);
  if (!r.ok()) return finish({now, r.error});
  SimTime done = r.done;

  if (any_dead) {
    if (cfg_.level == RaidLevel::kRaid0)
      return finish({now, ErrorCode::kDeviceFailed});
    const u32 rsp = sp != obs::kNoSpan
                        ? span_->begin_span("raid.reconstruct", now)
                        : obs::kNoSpan;
    u64 rebuilt = 0;
    for (u32 i = 0; i < n; ++i) {
      const Loc loc = locate(lba + i);
      if (!devs_[loc.dev]->failed()) continue;
      if (cfg_.level == RaidLevel::kRaid1) {
        if (rsp != obs::kNoSpan) span_->end_span(rsp, now, rebuilt);
        return finish({now, ErrorCode::kDeviceFailed});
      }
      SimTime t = now;
      auto rec = reconstruct_block(now, loc.dev, loc.off, &t);
      if (!rec.is_ok()) {
        if (rsp != obs::kNoSpan) span_->end_span(rsp, t, rebuilt);
        return finish({now, rec.code()});
      }
      tags_out[i] = rec.value();
      rstats_.degraded_reads++;
      ++rebuilt;
      done = std::max(done, t);
    }
    if (rsp != obs::kNoSpan) span_->end_span(rsp, done, rebuilt);
  }
  return finish({done, ErrorCode::kOk});
}

Result<u64> RaidDevice::reconstruct_block(SimTime now, size_t dead_dev, u64 off,
                                          SimTime* done) {
  u64 acc = 0;
  SimTime t = now;
  for (size_t d = 0; d < devs_.size(); ++d) {
    if (d == dead_dev) continue;
    if (devs_[d]->failed()) return Status(ErrorCode::kDeviceFailed, "double failure");
    u64 tag = 0;
    IoResult r = devs_[d]->read(now, off, 1, std::span<u64>(&tag, 1));
    if (!r.ok()) return Status(r.error);
    stats_.read_ops++;
    stats_.read_blocks++;
    acc ^= tag;
    t = std::max(t, r.done);
  }
  if (done != nullptr) *done = t;
  return acc;
}

IoResult RaidDevice::write(SimTime now, u64 lba, u32 n, std::span<const u64> tags) {
  return write_blocks(now, lba, n, tags, nullptr);
}

IoResult RaidDevice::write_blocks(SimTime now, u64 lba, u32 n,
                                  std::span<const u64> tags,
                                  const Payload* payload) {
  if (lba + n > capacity_blocks_) return {now, ErrorCode::kInvalidArgument};
  const u32 sp = (span_ != nullptr && span_->sampling())
                     ? span_->begin_span("raid.write", now)
                     : obs::kNoSpan;
  auto finish = [&](IoResult r) {
    if (sp != obs::kNoSpan) span_->end_span(sp, r.done, n);
    return r;
  };
  if (cfg_.level == RaidLevel::kRaid4 || cfg_.level == RaidLevel::kRaid5)
    return finish(write_parity_level(now, lba, n, tags, payload));
  cells_.clear();
  for (u32 i = 0; i < n; ++i) {
    const Loc loc = locate(lba + i);
    const u64 tag = tags.empty() ? 0 : tags[i];
    const size_t placed = cells_.size();
    if (!devs_[loc.dev]->failed()) cells_.push_back({loc.dev, loc.off, tag});
    if (cfg_.level == RaidLevel::kRaid1 && !devs_[loc.mirror]->failed()) {
      cells_.push_back({loc.mirror, loc.off, tag});
    }
    // A block with no live copy cannot be acknowledged.
    if (cells_.size() == placed) return finish({now, ErrorCode::kDeviceFailed});
  }
  const IoResult r = run_members(payload != nullptr ? MemberOp::kPayload
                                                    : MemberOp::kWrite,
                                  cells_, stats_, now, payload);
  return finish(r.ok() ? r : IoResult{now, r.error});
}

// The parity-write planner, one stripe at a time. A stripe is a grid of
// data cells (index col * chunk + row) plus one parity block per row; the
// write covers the cells [first, first + cnt) and so touches min(cnt,
// chunk) rows. The plan fixes what to read:
//   - RMW (every member up, and no more reads than reconstruct-write): the
//     covered cells and the touched rows' parity;
//   - reconstruct-write otherwise: the live untouched cells of touched rows,
//     plus every live cell and the parity when an untouched cell sits on
//     the dead member (only the old parity remembers its value). A
//     full-stripe write is a reconstruct-write with nothing to read.
// A touched row's new parity is the XOR of its new contents: covered cells
// give their new tag, untouched cells that were read their old value, and
// the untouched cells left unread (all of them under RMW, the dead one
// otherwise) come in one piece as the old parity XOR every old value read.
// Dead members are not written: parity carries a dead cell's new value. A
// payload's covered cells are one member payload write, issued with the
// parity once the reads are in, and count as tag 0 in the parity.
IoResult RaidDevice::write_parity_level(SimTime now, u64 lba, u32 n,
                                        std::span<const u64> tags,
                                        const Payload* payload) {
  size_t dead_members = 0;
  for (auto* d : devs_) dead_members += d->failed() ? 1 : 0;
  // With a second member down every stripe holds a cell with no live copy:
  // a covered cell with nowhere to land, or an untouched one parity can no
  // longer solve. An explicit error beats quietly corrupting the stripe.
  if (dead_members > 1) return {now, ErrorCode::kDeviceFailed};

  const u64 chunk = cfg_.chunk_blocks;
  const u64 cols = data_cols(cfg_.level, devs_.size());
  const u64 stripe_data = cols * chunk;
  old_val_.resize(stripe_data + chunk);  // cells, then parity rows
  SimTime done = now;
  for (u32 pos = 0; pos < n;) {
    const u64 stripe = stripe_of(lba + pos);
    const u64 first = (lba + pos) % stripe_data;
    const auto cnt =
        static_cast<u32>(std::min<u64>(n - pos, stripe_data - first));
    const auto covered = [&](u64 idx) {
      return idx >= first && idx < first + cnt;
    };
    const auto new_tag = [&](u64 idx) {
      return tags.empty() ? 0 : tags[pos + idx - first];
    };
    const auto touched = [&](u64 row) {
      return (row + chunk - first % chunk) % chunk < cnt;
    };
    const size_t pdev = parity_dev(stripe);
    const u64 base = stripe * chunk;  // member offset of the stripe's row 0
    const auto dev_of = [&](u64 col) {
      return static_cast<size_t>(col >= pdev ? col + 1 : col);
    };

    u64 dead_col = cols;  // none
    bool solve_dead = false;
    for (u64 c = 0; c < cols; ++c) {
      if (!devs_[dev_of(c)]->failed()) continue;
      dead_col = c;
      for (u64 row = 0; row < chunk; ++row)
        solve_dead |= touched(row) && !covered(c * chunk + row);
    }
    const u64 rows = std::min<u64>(cnt, chunk);
    const bool rmw = dead_members == 0 && cnt + rows <= rows * cols - cnt;
    const bool read_covered = rmw || solve_dead;  // and the old parity
    const char* strategy = "raid.reconstruct_write";
    if (cnt == stripe_data) {
      rstats_.full_stripe_writes++;
      strategy = "raid.full_stripe";
    } else if (rmw) {
      rstats_.rmw_writes++;
      strategy = "raid.rmw";
    } else {
      rstats_.reconstruct_writes++;
    }

    std::fill(old_val_.begin(), old_val_.end(), 0);
    reads_.clear();
    writes_.clear();
    cells_.clear();  // a payload's data cells
    for (u64 c = 0; c < cols; ++c) {
      if (c == dead_col) continue;
      for (u64 row = 0; row < chunk; ++row) {
        const u64 idx = c * chunk + row;
        if (covered(idx))
          (payload != nullptr ? cells_ : writes_)
              .push_back({dev_of(c), base + row, new_tag(idx)});
        if (touched(row) && (covered(idx) ? read_covered : !rmw))
          reads_.push_back({dev_of(c), base + row, 0, &old_val_[idx]});
      }
    }
    if (read_covered)
      for (u64 row = 0; row < chunk; ++row)
        if (touched(row))
          reads_.push_back({pdev, base + row, 0, &old_val_[stripe_data + row]});
    const IoResult rd = run_members(MemberOp::kRead, reads_, stats_, now);
    if (!rd.ok()) return {now, rd.error};

    // A dead parity member stays stale until rebuild.
    for (u64 row = 0; row < chunk && !devs_[pdev]->failed(); ++row) {
      if (!touched(row)) continue;
      u64 fresh = 0;                            // new contents, as read
      u64 unread = old_val_[stripe_data + row];  // old parity ^ old values read
      bool from_parity = rmw;
      for (u64 c = 0; c < cols; ++c) {
        const u64 idx = c * chunk + row;
        unread ^= old_val_[idx];
        if (covered(idx)) {
          fresh ^= new_tag(idx);
        } else {
          fresh ^= old_val_[idx];
          from_parity |= c == dead_col;
        }
      }
      writes_.push_back(
          {pdev, base + row, from_parity ? fresh ^ unread : fresh});
    }
    if (payload != nullptr) {
      const IoResult pw =
          run_members(MemberOp::kPayload, cells_, stats_, rd.done, payload);
      if (!pw.ok()) return {now, pw.error};
      done = std::max(done, pw.done);
    }
    const IoResult wr = run_members(MemberOp::kWrite, writes_, stats_, rd.done);
    if (!wr.ok()) return {now, wr.error};
    if (span_ != nullptr && span_->sampling()) {
      const u32 ss = span_->begin_span(strategy, now);
      if (ss != obs::kNoSpan) span_->end_span(ss, wr.done, cnt);
    }
    done = std::max(done, wr.done);
    pos += cnt;
  }
  return {done, ErrorCode::kOk};
}

IoResult RaidDevice::write_payload(SimTime now, u64 lba, Payload payload) {
  const auto n = static_cast<u32>(blockdev::payload_blocks(payload));
  // The payload must land contiguously on one member (single chunk run).
  const Loc first = locate(lba);
  const Loc last = locate(lba + n - 1);
  if (first.dev != last.dev || last.off != first.off + n - 1) {
    return {now, ErrorCode::kInvalidArgument};
  }
  // Parity counts a payload's cells as tag 0, so it cannot stand in for a
  // payload whose member is down: that write has no live copy.
  if ((cfg_.level == RaidLevel::kRaid4 || cfg_.level == RaidLevel::kRaid5) &&
      devs_[first.dev]->failed()) {
    return {now, ErrorCode::kDeviceFailed};
  }
  return write_blocks(now, lba, n, {}, &payload);
}

Result<Payload> RaidDevice::read_payload(SimTime now, u64 lba, SimTime* done) {
  const Loc loc = locate(lba);
  if (!devs_[loc.dev]->failed()) return devs_[loc.dev]->read_payload(now, loc.off, done);
  if (cfg_.level == RaidLevel::kRaid1 && loc.mirror != SIZE_MAX &&
      !devs_[loc.mirror]->failed()) {
    return devs_[loc.mirror]->read_payload(now, loc.off, done);
  }
  return Status(ErrorCode::kDeviceFailed);
}

IoResult RaidDevice::flush(SimTime now) {
  SimTime done = now;
  for (auto* d : devs_) {
    if (d->failed()) continue;
    IoResult r = d->flush(now);
    if (!r.ok()) return r;
    done = std::max(done, r.done);
  }
  stats_.flushes++;
  return {done, ErrorCode::kOk};
}

IoResult RaidDevice::trim(SimTime now, u64 lba, u64 n) {
  // Trim per member run; parity chunks of fully-trimmed stripes are trimmed
  // too (the cache layers only trim whole stripes / segment groups).
  cells_.clear();
  for (u64 i = 0; i < n; ++i) {
    const Loc loc = locate(lba + i);
    if (!devs_[loc.dev]->failed()) cells_.push_back({loc.dev, loc.off});
    if (cfg_.level == RaidLevel::kRaid1 && loc.mirror != SIZE_MAX &&
        !devs_[loc.mirror]->failed())
      cells_.push_back({loc.mirror, loc.off});
  }
  if (cfg_.level == RaidLevel::kRaid4 || cfg_.level == RaidLevel::kRaid5) {
    const u64 stripe_data =
        data_cols(cfg_.level, devs_.size()) * cfg_.chunk_blocks;
    const u64 first_stripe = stripe_of(lba);
    const u64 last_stripe = stripe_of(lba + n - 1);
    for (u64 s = first_stripe; s <= last_stripe; ++s) {
      const u64 s_begin = s * stripe_data;
      if (lba <= s_begin && lba + n >= s_begin + stripe_data) {
        const size_t pdev = parity_dev(s);
        if (!devs_[pdev]->failed())
          for (u64 row = 0; row < cfg_.chunk_blocks; ++row)
            cells_.push_back({pdev, s * cfg_.chunk_blocks + row});
      }
    }
  }
  // Member trims are advisory: a failed one is not the caller's error.
  const IoResult r = run_members(MemberOp::kTrim, cells_, stats_, now);
  stats_.trim_ops++;
  stats_.trim_blocks += n;
  return {r.done, ErrorCode::kOk};
}

bool RaidDevice::verify_parity(u64 lba) {
  if (cfg_.level != RaidLevel::kRaid4 && cfg_.level != RaidLevel::kRaid5) return true;
  // Every member's chunk of the stripe in one read; each row of a
  // consistent stripe, parity included, XORs to zero.
  const u64 chunk = cfg_.chunk_blocks;
  const u64 base = stripe_of(lba) * chunk;
  std::vector<u64> grid(devs_.size() * chunk, 0);
  std::vector<Cell> cells;
  for (size_t d = 0; d < devs_.size(); ++d)
    for (u64 row = 0; row < chunk; ++row)
      cells.push_back({d, base + row, 0, &grid[d * chunk + row]});
  DeviceStats uncounted;  // a testing hook stays out of the array's stats
  run_members(MemberOp::kRead, cells, uncounted, 0);
  for (u64 row = 0; row < chunk; ++row) {
    u64 acc = 0;
    for (size_t d = 0; d < devs_.size(); ++d) acc ^= grid[d * chunk + row];
    if (acc != 0) return false;
  }
  return true;
}

}  // namespace srcache::raid
