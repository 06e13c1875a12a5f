// Contention primitives.
//
// srcache models devices as servers with explicit availability timelines:
// a request submitted at `now` begins service at max(now, server free time)
// and occupies the server for its service time. Composing these timelines
// bottom-up (NAND die -> SSD controller -> host interface -> RAID -> cache)
// reproduces queueing delay and parallelism without a full event calendar.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/time.hpp"

namespace srcache::sim {

// A single serially-used resource (e.g. a SATA link, an HDD arm).
class ServiceTimeline {
 public:
  // Occupy the resource for `service` starting no earlier than `now`.
  // Returns the completion time.
  SimTime submit(SimTime now, SimTime service) {
    const SimTime start = busy_until_ > now ? busy_until_ : now;
    busy_until_ = start + service;
    busy_time_ += service;
    return busy_until_;
  }

  // Earliest time a new request could start service.
  [[nodiscard]] SimTime free_at() const { return busy_until_; }
  // Total time spent serving (for utilization accounting).
  [[nodiscard]] SimTime busy_time() const { return busy_time_; }

  // Backlog relative to `now` (how far the queue extends into the future).
  [[nodiscard]] SimTime backlog(SimTime now) const {
    return busy_until_ > now ? busy_until_ - now : 0;
  }

  void reset() { busy_until_ = 0; busy_time_ = 0; }

 private:
  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
};

// A (time, index) pair packed into one u64: the time shifted left by b bits
// or'd with the index, b = the bit width of the index count (7 for 90).
// Two keys compare as their pairs do, time first and then index, so an
// array of keys kept sorted has the earliest time, the lowest index among
// ties, at its front. A time that is negative or too large for the key
// throws std::overflow_error rather than misorder.
class PackedKey {
 public:
  explicit PackedKey(size_t count) : shift_(std::bit_width(count)) {}

  [[nodiscard]] u64 pack(SimTime time, size_t index) const {
    check_fits(time);
    return static_cast<u64>(time) << shift_ | index;
  }
  [[nodiscard]] SimTime time(u64 key) const {
    return static_cast<SimTime>(key >> shift_);
  }
  [[nodiscard]] size_t index(u64 key) const {
    return key & ((u64{1} << shift_) - 1);
  }
  // Bits of a key below the time.
  [[nodiscard]] int shift() const { return shift_; }

  void check_fits(SimTime time) const {
    if (static_cast<u64>(time) > ~u64{0} >> shift_) {
      throw std::overflow_error("PackedKey: time does not fit the key");
    }
  }

  // Replaces the front of the sorted `keys` by `key` and keeps them sorted:
  // the keys that sort ahead of it move one slot to the front.
  static void replace_front(std::span<u64> keys, u64 key) {
    const auto rest = keys.begin() + 1;
    const auto pos = std::lower_bound(rest, keys.end(), key);
    std::move(rest, pos, keys.begin());
    *(pos - 1) = key;
  }

 private:
  int shift_;
};

// k identical parallel units fed from one queue (e.g. NAND dies across
// channels). Each op goes to the earliest-free unit, the lowest index among
// ties. The units sit in one array sorted by their PackedKey (free time,
// unit), so the front is the unit to pick. A free time too large for the
// key throws std::overflow_error, before any state changes, rather than
// misorder. This is the innermost loop of every simulated device.
//
// A batch is `count` equal ops cut into at most `units` shares: count /
// units ops each, the first count % units of them one op larger (only
// those when count < units). Each share in turn goes to the earliest-free
// unit, exactly as one submit() per share would place it. When even the
// smallest share, started on the earliest-free unit, ends after the last
// unit to take a share frees up, no re-keyed unit can come back ahead of
// the ones still waiting, so share i goes to the i-th unit in sorted order:
// submit_batch() re-keys them in one pass and restores the order with one
// merge. Otherwise it places the shares one by one.
class MultiServer {
 public:
  explicit MultiServer(int units)
      : keys_(checked_units(units)),
        merge_buf_(keys_.size()),
        tied_bits_((keys_.size() + 63) / 64, 0),
        unit_busy_(keys_.size(), 0),
        key_(keys_.size()) {
    reset();
  }

  SimTime submit(SimTime now, SimTime service) {
    const u64 front = keys_[0];
    const size_t unit = key_.index(front);
    const SimTime done = std::max(free_of(front), now) + service;
    const u64 key = key_.pack(done, unit);
    unit_busy_[unit] += service;
    busy_time_ += service;
    PackedKey::replace_front(keys_, key);
    return done;
  }

  // Places `count` ops of `per_op` service as a batch (see the class
  // comment). Returns the completion time of the last op.
  SimTime submit_batch(SimTime now, u64 count, SimTime per_op) {
    if (count == 0) return now;
    const u64 u = keys_.size();
    const u64 per_unit = count / u;
    const u64 extra = count % u;
    const u64 shares = per_unit > 0 ? u : extra;
    if (shares == 1) return submit(now, static_cast<SimTime>(count) * per_op);
    const u64 smallest = per_unit > 0 ? per_unit : 1;
    const SimTime first = std::max(free_of(keys_[0]), now);
    if (per_op >= 0 && first + static_cast<SimTime>(smallest) * per_op >
                           free_of(keys_[shares - 1])) {
      return place_in_sorted_order(now, per_unit, extra, per_op);
    }
    SimTime last = now;
    for (u64 i = 0; i < shares; ++i) {
      const u64 share = per_unit + (i < extra ? 1 : 0);
      const SimTime done = submit(now, static_cast<SimTime>(share) * per_op);
      last = done > last ? done : last;
    }
    return last;
  }

  // Time at which all units are idle (used for flush/drain semantics).
  [[nodiscard]] SimTime all_idle_at() const { return free_of(keys_.back()); }

  [[nodiscard]] SimTime earliest_free() const { return free_of(keys_[0]); }

  [[nodiscard]] int units() const { return static_cast<int>(keys_.size()); }
  [[nodiscard]] SimTime busy_time() const { return busy_time_; }
  // Per-unit share of busy_time() — exposes placement skew (a single die
  // serving a long erase while its siblings idle) that the aggregate hides.
  [[nodiscard]] SimTime busy_time(size_t unit) const {
    return unit_busy_.at(unit);
  }

  void reset() {
    for (size_t i = 0; i < keys_.size(); ++i) keys_[i] = i;  // all free at 0
    for (auto& b : unit_busy_) b = 0;
    busy_time_ = 0;
  }

 private:
  static size_t checked_units(int units) {
    if (units < 1) throw std::invalid_argument("MultiServer: units < 1");
    return static_cast<size_t>(units);
  }
  [[nodiscard]] SimTime free_of(u64 key) const { return key_.time(key); }

  // The batch's one-pass path: share i to the i-th sorted unit. The first
  // `extra` units take the larger share and the next ones the smaller (or,
  // when count < units, none and keep their keys). Each re-keyed run stays
  // sorted except for its units that were free by `now`: they all end at
  // now + share and must be re-ordered by index. The larger-share run is
  // then merged with everything after it.
  SimTime place_in_sorted_order(SimTime now, u64 per_unit, u64 extra,
                                SimTime per_op) {
    const u64 u = keys_.size();
    const u64 rekeyed = per_unit > 0 ? u : extra;
    const auto big = static_cast<SimTime>(per_unit + 1) * per_op;
    const auto small = static_cast<SimTime>(per_unit) * per_op;
    // The latest new free time ends one of the two runs; check it fits the
    // key before changing anything.
    SimTime last = now;
    if (extra > 0) last = std::max(free_of(keys_[extra - 1]), now) + big;
    if (rekeyed > extra) {
      last = std::max(last,
                      std::max(free_of(keys_[rekeyed - 1]), now) + small);
    }
    key_.check_fits(last);
    rekey_run(now, 0, extra, big);
    rekey_run(now, extra, rekeyed, small);
    busy_time_ += static_cast<SimTime>(per_unit * u + extra) * per_op;
    // Merge [0, extra) with [extra, u) in place; the output never passes
    // the next unread key of the second run.
    std::copy(keys_.begin(), keys_.begin() + static_cast<ptrdiff_t>(extra),
              merge_buf_.begin());
    u64 i = 0, j = extra, out = 0;
    while (i < extra && j < u) {
      keys_[out++] = merge_buf_[i] < keys_[j] ? merge_buf_[i++] : keys_[j++];
    }
    while (i < extra) keys_[out++] = merge_buf_[i++];
    return last;
  }

  // Adds `service` to the sorted units [from, to). Those free by `now`, a
  // prefix, then all end at now + service and are written back in index
  // order through a bitmap; the rest keep their order.
  void rekey_run(SimTime now, u64 from, u64 to, SimTime service) {
    u64 tied = from;
    for (; tied < to && free_of(keys_[tied]) <= now; ++tied) {
      const size_t unit = key_.index(keys_[tied]);
      tied_bits_[unit / 64] |= u64{1} << (unit % 64);
      unit_busy_[unit] += service;
    }
    const u64 tied_key = static_cast<u64>(now + service) << key_.shift();
    u64 out = from;
    for (size_t w = 0; out < tied; ++w) {
      for (u64& word = tied_bits_[w]; word != 0; word &= word - 1) {
        keys_[out++] = tied_key | (w * 64 + std::countr_zero(word));
      }
    }
    for (u64 i = tied; i < to; ++i) {
      keys_[i] += static_cast<u64>(service) << key_.shift();
      unit_busy_[key_.index(keys_[i])] += service;
    }
  }

  // Packed (free time, unit) keys in ascending order.
  std::vector<u64> keys_;
  std::vector<u64> merge_buf_;
  // One bit per unit, all clear between batches (see rekey_run).
  std::vector<u64> tied_bits_;
  std::vector<SimTime> unit_busy_;
  PackedKey key_;
  SimTime busy_time_ = 0;
};

// Two-class strict-priority server: foreground ops (application reads and
// writes) preempt background ones (destaging, rebuilds). Foreground work
// sees only foreground contention; background work is pushed behind all
// committed work, conserving capacity. This models a background writeback
// thread sharing a device with the foreground path.
class PriorityTimeline {
 public:
  SimTime submit_fg(SimTime now, SimTime service) {
    const SimTime start = fg_free_ > now ? fg_free_ : now;
    fg_free_ = start + service;
    const SimTime bg_base = bg_free_ > start ? bg_free_ : start;
    bg_free_ = bg_base + service;  // fg work also delays background
    busy_time_ += service;
    return fg_free_;
  }

  SimTime submit_bg(SimTime now, SimTime service) {
    SimTime start = bg_free_ > now ? bg_free_ : now;
    if (fg_free_ > start) start = fg_free_;
    bg_free_ = start + service;
    busy_time_ += service;
    return bg_free_;
  }

  SimTime submit(SimTime now, SimTime service, bool background) {
    return background ? submit_bg(now, service) : submit_fg(now, service);
  }

  [[nodiscard]] SimTime busy_time() const { return busy_time_; }
  void reset() { fg_free_ = bg_free_ = busy_time_ = 0; }

 private:
  SimTime fg_free_ = 0;
  SimTime bg_free_ = 0;
  SimTime busy_time_ = 0;
};

// Shared bandwidth pipe (network link / host interface): a transfer of b
// bytes occupies the pipe for b / rate. Per-transfer latency is added by the
// caller, not the pipe, so pipelined transfers overlap correctly.
class BandwidthPipe {
 public:
  explicit BandwidthPipe(double mbps) : mbps_(mbps) {}

  SimTime transfer(SimTime now, u64 bytes) {
    return line_.submit(now, transfer_time(bytes, mbps_));
  }

  [[nodiscard]] double mbps() const { return mbps_; }
  [[nodiscard]] SimTime backlog(SimTime now) const {
    return line_.backlog(now);
  }
  [[nodiscard]] SimTime busy_time() const { return line_.busy_time(); }
  void reset() { line_.reset(); }

 private:
  double mbps_;
  ServiceTimeline line_;
};

}  // namespace srcache::sim
