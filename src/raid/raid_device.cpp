#include "raid/raid_device.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/runs.hpp"

namespace srcache::raid {

namespace {

// One block-granular device access; runs are merged before submission.
struct Cell {
  size_t dev;
  u64 off;
  u64 tag = 0;    // value to write
  u64* out = nullptr;  // destination for reads
};

void sort_cells(std::vector<Cell>& cells) {
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    return a.dev != b.dev ? a.dev < b.dev : a.off < b.off;
  });
}

}  // namespace

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

// --- batched member access -------------------------------------------------

namespace {

// Merges sorted cells into contiguous per-device runs and applies `fn`
// (dev, off, count, first-cell-index). Returns max completion.
template <typename Fn>
SimTime for_each_run(const std::vector<Cell>& cells, SimTime now, Fn&& fn) {
  SimTime done = now;
  const auto adjacent = [](const Cell& a, const Cell& b) {
    return b.dev == a.dev && b.off == a.off + 1;
  };
  common::for_each_run(cells, adjacent, [&](size_t i, size_t cnt) {
    done = std::max(done, fn(cells[i].dev, cells[i].off, cnt, i));
  });
  return done;
}

}  // namespace

IoResult RaidDevice::read(SimTime now, u64 lba, u32 n, std::span<u64> tags_out) {
  if (lba + n > capacity_blocks_) return {now, ErrorCode::kInvalidArgument};
  const u32 sp = (span_ != nullptr && span_->sampling())
                     ? span_->begin_span("raid.read", now)
                     : obs::kNoSpan;
  auto finish = [&](IoResult r) {
    if (sp != obs::kNoSpan) span_->end_span(sp, r.done, n);
    return r;
  };
  std::vector<u64> scratch;
  if (tags_out.empty()) {
    scratch.assign(n, 0);
    tags_out = scratch;
  }
  std::vector<Cell> cells;
  cells.reserve(n);
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
    cells.push_back({loc.dev, loc.off, 0, &tags_out[i]});
  }
  sort_cells(cells);
  std::vector<u64> buf;
  ErrorCode err = ErrorCode::kOk;
  SimTime done = for_each_run(cells, now, [&](size_t dev, u64 off, size_t cnt, size_t first) {
    buf.resize(cnt);
    IoResult r = devs_[dev]->read(now, off, static_cast<u32>(cnt),
                                  std::span<u64>(buf.data(), cnt));
    if (!r.ok()) { err = r.error; return now; }
    for (size_t k = 0; k < cnt; ++k) *cells[first + k].out = buf[k];
    stats_.read_ops++;
    stats_.read_blocks += cnt;
    return r.done;
  });
  if (err != ErrorCode::kOk) return finish({now, err});

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
  if (lba + n > capacity_blocks_) return {now, ErrorCode::kInvalidArgument};
  const u32 sp = (span_ != nullptr && span_->sampling())
                     ? span_->begin_span("raid.write", now)
                     : obs::kNoSpan;
  auto finish = [&](IoResult r) {
    if (sp != obs::kNoSpan) span_->end_span(sp, r.done, n);
    return r;
  };
  switch (cfg_.level) {
    case RaidLevel::kRaid0:
    case RaidLevel::kRaid1: {
      std::vector<Cell> cells;
      cells.reserve(n * 2);
      for (u32 i = 0; i < n; ++i) {
        const Loc loc = locate(lba + i);
        const u64 tag = tags.empty() ? 0 : tags[i];
        const size_t placed = cells.size();
        if (!devs_[loc.dev]->failed()) cells.push_back({loc.dev, loc.off, tag});
        if (cfg_.level == RaidLevel::kRaid1 && !devs_[loc.mirror]->failed()) {
          cells.push_back({loc.mirror, loc.off, tag});
        }
        // A block with no live copy cannot be acknowledged.
        if (cells.size() == placed)
          return finish({now, ErrorCode::kDeviceFailed});
      }
      sort_cells(cells);
      std::vector<u64> buf;
      ErrorCode err = ErrorCode::kOk;
      SimTime done = for_each_run(cells, now, [&](size_t dev, u64 off, size_t cnt, size_t first) {
        buf.resize(cnt);
        for (size_t k = 0; k < cnt; ++k) buf[k] = cells[first + k].tag;
        IoResult r = devs_[dev]->write(now, off, static_cast<u32>(cnt),
                                       std::span<const u64>(buf.data(), cnt));
        if (!r.ok()) { err = r.error; return now; }
        stats_.write_ops++;
        stats_.write_blocks += cnt;
        return r.done;
      });
      if (err != ErrorCode::kOk) return finish({now, err});
      return finish({done, ErrorCode::kOk});
    }
    case RaidLevel::kRaid4:
    case RaidLevel::kRaid5:
      return finish(write_parity_level(now, lba, n, tags));
  }
  return finish({now, ErrorCode::kInvalidArgument});
}

IoResult RaidDevice::write_parity_level(SimTime now, u64 lba, u32 n,
                                        std::span<const u64> tags) {
  const u64 cols = data_cols(cfg_.level, devs_.size());
  const u64 stripe_data = cols * cfg_.chunk_blocks;
  SimTime done = now;
  u32 pos = 0;
  while (pos < n) {
    const u64 stripe = stripe_of(lba + pos);
    u32 cnt = 1;
    while (pos + cnt < n && stripe_of(lba + pos + cnt) == stripe) ++cnt;

    const size_t pdev = parity_dev(stripe);
    const u64 pbase = stripe * cfg_.chunk_blocks;  // parity chunk offset

    // Cell grid for this stripe: index = col * chunk + row.
    std::vector<u64> new_tag(stripe_data, 0);
    std::vector<char> written(stripe_data, 0);
    for (u32 i = 0; i < cnt; ++i) {
      const u64 b = lba + pos + i;
      const u64 chunk = b / cfg_.chunk_blocks;
      const u64 col = chunk % cols;
      const u64 row = b % cfg_.chunk_blocks;
      new_tag[col * cfg_.chunk_blocks + row] = tags.empty() ? 0 : tags[pos + i];
      written[col * cfg_.chunk_blocks + row] = 1;
    }
    const bool full =
        static_cast<u64>(std::count(written.begin(), written.end(), 1)) == stripe_data;

    bool degraded = devs_[pdev]->failed();
    for (size_t d = 0; d < devs_.size() && !degraded; ++d) degraded = devs_[d]->failed();

    auto data_dev = [&](u64 col) {
      return col >= pdev ? static_cast<size_t>(col) + 1 : static_cast<size_t>(col);
    };
    auto dev_off = [&](u64 row) { return pbase + row; };

    std::vector<u64> parity(cfg_.chunk_blocks, 0);
    std::vector<Cell> reads, writes;
    SimTime t_read = now;
    const char* strategy = "raid.full_stripe";

    if (full) {
      // Degraded members are skipped: a dead data cell's value lives in
      // parity (reads reconstruct it), a dead parity chunk simply stays
      // unwritten until rebuild.
      for (u64 c = 0; c < cols; ++c)
        for (u64 row = 0; row < cfg_.chunk_blocks; ++row) {
          const u64 tag = new_tag[c * cfg_.chunk_blocks + row];
          parity[row] ^= tag;
          if (!devs_[data_dev(c)]->failed())
            writes.push_back({data_dev(c), dev_off(row), tag});
        }
      if (!devs_[pdev]->failed())
        for (u64 row = 0; row < cfg_.chunk_blocks; ++row)
          writes.push_back({pdev, dev_off(row), parity[row]});
      rstats_.full_stripe_writes++;
    } else {
      // Rows needing a parity update.
      std::vector<char> row_touched(cfg_.chunk_blocks, 0);
      u64 written_cells = 0, untouched_in_rows = 0, rows = 0;
      for (u64 c = 0; c < cols; ++c)
        for (u64 row = 0; row < cfg_.chunk_blocks; ++row)
          if (written[c * cfg_.chunk_blocks + row]) {
            row_touched[row] = 1;
            ++written_cells;
          }
      for (u64 row = 0; row < cfg_.chunk_blocks; ++row)
        if (row_touched[row]) ++rows;
      for (u64 c = 0; c < cols; ++c)
        for (u64 row = 0; row < cfg_.chunk_blocks; ++row)
          if (row_touched[row] && !written[c * cfg_.chunk_blocks + row])
            ++untouched_in_rows;

      std::vector<u64> old_vals(stripe_data, 0);
      std::vector<u64> old_parity(cfg_.chunk_blocks, 0);
      const bool use_rmw = written_cells + rows <= untouched_in_rows;
      // Degraded reconstruct-write: the dead data column (if any) and
      // whether its untouched cells must be solved from the old parity.
      size_t dead_col = SIZE_MAX;
      bool solve_dead = false;

      if (use_rmw && !degraded) {
        for (u64 c = 0; c < cols; ++c)
          for (u64 row = 0; row < cfg_.chunk_blocks; ++row)
            if (written[c * cfg_.chunk_blocks + row])
              reads.push_back({data_dev(c), dev_off(row), 0,
                               &old_vals[c * cfg_.chunk_blocks + row]});
        for (u64 row = 0; row < cfg_.chunk_blocks; ++row)
          if (row_touched[row]) reads.push_back({pdev, dev_off(row), 0, &old_parity[row]});
        rstats_.rmw_writes++;
        strategy = "raid.rmw";
      } else {
        // Reconstruct-write (also the degraded fall-back: read what is
        // alive, recompute parity from scratch). A dead data cell left
        // untouched in a touched row holds a value only the old parity
        // remembers — it must be solved from parity + the other cells' old
        // values, never treated as zero (that would silently destroy it).
        size_t dead_members = 0;
        for (size_t d = 0; d < devs_.size(); ++d)
          if (devs_[d]->failed()) ++dead_members;
        for (u64 c = 0; c < cols; ++c)
          if (devs_[data_dev(c)]->failed()) dead_col = c;
        if (dead_col != SIZE_MAX)
          for (u64 row = 0; row < cfg_.chunk_blocks; ++row)
            if (row_touched[row] &&
                !written[dead_col * cfg_.chunk_blocks + row])
              solve_dead = true;
        // With a second member down the lost value is unrecoverable; an
        // explicit error beats quietly corrupting the stripe.
        if (solve_dead && dead_members > 1)
          return {now, ErrorCode::kDeviceFailed};
        for (u64 c = 0; c < cols; ++c)
          for (u64 row = 0; row < cfg_.chunk_blocks; ++row)
            if (row_touched[row] && !devs_[data_dev(c)]->failed() &&
                (solve_dead || !written[c * cfg_.chunk_blocks + row]))
              reads.push_back({data_dev(c), dev_off(row), 0,
                               &old_vals[c * cfg_.chunk_blocks + row]});
        if (solve_dead)
          for (u64 row = 0; row < cfg_.chunk_blocks; ++row)
            if (row_touched[row])
              reads.push_back({pdev, dev_off(row), 0, &old_parity[row]});
        rstats_.reconstruct_writes++;
        strategy = "raid.reconstruct_write";
      }

      sort_cells(reads);
      std::vector<u64> buf;
      ErrorCode err = ErrorCode::kOk;
      t_read = for_each_run(reads, now, [&](size_t dev, u64 off, size_t rcnt, size_t first) {
        buf.resize(rcnt);
        IoResult r = devs_[dev]->read(now, off, static_cast<u32>(rcnt),
                                      std::span<u64>(buf.data(), rcnt));
        if (!r.ok()) { err = r.error; return now; }
        for (size_t k = 0; k < rcnt; ++k) *reads[first + k].out = buf[k];
        stats_.read_ops++;
        stats_.read_blocks += rcnt;
        return r.done;
      });
      if (err != ErrorCode::kOk) return {now, err};

      for (u64 row = 0; row < cfg_.chunk_blocks; ++row) {
        if (!row_touched[row]) continue;
        if (use_rmw && !degraded) {
          u64 p = old_parity[row];
          for (u64 c = 0; c < cols; ++c) {
            const u64 idx = c * cfg_.chunk_blocks + row;
            if (written[idx]) p ^= old_vals[idx] ^ new_tag[idx];
          }
          parity[row] = p;
        } else {
          u64 p = 0;
          for (u64 c = 0; c < cols; ++c) {
            const u64 idx = c * cfg_.chunk_blocks + row;
            if (written[idx]) {
              p ^= new_tag[idx];
            } else if (c == dead_col && solve_dead) {
              // The dead cell's value = old parity ^ every other cell's old
              // value (all read above because solve_dead widened the reads).
              u64 v = old_parity[row];
              for (u64 c2 = 0; c2 < cols; ++c2)
                if (c2 != dead_col) v ^= old_vals[c2 * cfg_.chunk_blocks + row];
              p ^= v;
            } else {
              p ^= old_vals[idx];
            }
          }
          parity[row] = p;
        }
      }

      for (u64 c = 0; c < cols; ++c)
        for (u64 row = 0; row < cfg_.chunk_blocks; ++row) {
          const u64 idx = c * cfg_.chunk_blocks + row;
          if (written[idx] && !devs_[data_dev(c)]->failed())
            writes.push_back({data_dev(c), dev_off(row), new_tag[idx]});
        }
      if (!devs_[pdev]->failed())
        for (u64 row = 0; row < cfg_.chunk_blocks; ++row)
          if (row_touched[row]) writes.push_back({pdev, dev_off(row), parity[row]});
    }

    sort_cells(writes);
    std::vector<u64> wbuf;
    ErrorCode werr = ErrorCode::kOk;
    const SimTime t_write =
        for_each_run(writes, t_read, [&](size_t dev, u64 off, size_t wcnt, size_t first) {
          wbuf.resize(wcnt);
          for (size_t k = 0; k < wcnt; ++k) wbuf[k] = writes[first + k].tag;
          IoResult r = devs_[dev]->write(t_read, off, static_cast<u32>(wcnt),
                                         std::span<const u64>(wbuf.data(), wcnt));
          if (!r.ok()) { werr = r.error; return t_read; }
          stats_.write_ops++;
          stats_.write_blocks += wcnt;
          return r.done;
        });
    if (werr != ErrorCode::kOk) return {now, werr};
    if (span_ != nullptr && span_->sampling()) {
      const u32 ss = span_->begin_span(strategy, now);
      if (ss != obs::kNoSpan) span_->end_span(ss, t_write, cnt);
    }
    done = std::max(done, t_write);
    pos += cnt;
  }
  return {done, ErrorCode::kOk};
}

IoResult RaidDevice::write_payload(SimTime now, u64 lba, Payload payload) {
  const u32 n = std::max<u32>(
      1, static_cast<u32>(bytes_to_blocks(payload ? payload->size() : 1)));
  // The payload must land contiguously on one member (single chunk run).
  const Loc first = locate(lba);
  const Loc last = locate(lba + n - 1);
  if (first.dev != last.dev || last.off != first.off + n - 1) {
    return {now, ErrorCode::kInvalidArgument};
  }
  IoResult r = write(now, lba, n, {});  // timing + parity bookkeeping
  if (!r.ok()) return r;
  devs_[first.dev]->write_payload(r.done, first.off, payload);
  if (cfg_.level == RaidLevel::kRaid1 && first.mirror != SIZE_MAX &&
      !devs_[first.mirror]->failed()) {
    devs_[first.mirror]->write_payload(r.done, first.off, payload);
  }
  return r;
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
  std::vector<Cell> cells;
  for (u64 i = 0; i < n; ++i) {
    const Loc loc = locate(lba + i);
    if (!devs_[loc.dev]->failed()) cells.push_back({loc.dev, loc.off, 0});
    if (cfg_.level == RaidLevel::kRaid1 && loc.mirror != SIZE_MAX &&
        !devs_[loc.mirror]->failed())
      cells.push_back({loc.mirror, loc.off, 0});
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
            cells.push_back({pdev, s * cfg_.chunk_blocks + row, 0});
      }
    }
  }
  sort_cells(cells);
  SimTime done = for_each_run(cells, now, [&](size_t dev, u64 off, size_t cnt, size_t) {
    IoResult r = devs_[dev]->trim(now, off, cnt);
    return r.ok() ? r.done : now;
  });
  stats_.trim_ops++;
  stats_.trim_blocks += n;
  return {done, ErrorCode::kOk};
}

bool RaidDevice::verify_parity(u64 lba) {
  if (cfg_.level != RaidLevel::kRaid4 && cfg_.level != RaidLevel::kRaid5) return true;
  const u64 stripe = stripe_of(lba);
  const size_t pdev = parity_dev(stripe);
  for (u64 row = 0; row < cfg_.chunk_blocks; ++row) {
    const u64 off = stripe * cfg_.chunk_blocks + row;
    u64 acc = 0;
    for (size_t d = 0; d < devs_.size(); ++d) {
      u64 tag = 0;
      devs_[d]->read(0, off, 1, std::span<u64>(&tag, 1));
      if (d != pdev) acc ^= tag; else acc ^= 0;
    }
    u64 ptag = 0;
    devs_[pdev]->read(0, off, 1, std::span<u64>(&ptag, 1));
    if (acc != ptag) return false;
  }
  return true;
}

}  // namespace srcache::raid
