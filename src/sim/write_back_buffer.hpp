// WriteBackBuffer: a bounded write-back buffer in virtual time. An admitted
// write holds its bytes until it drains (its data reaches the backing
// media); a write that does not fit waits for the oldest writes to drain.
// SimSsd's DRAM write buffer and the iSCSI server's dirty page cache are
// both one of these.
#pragma once

#include <algorithm>
#include <deque>
#include <utility>

#include "common/types.hpp"
#include "sim/time.hpp"

namespace srcache::sim {

class WriteBackBuffer {
 public:
  explicit WriteBackBuffer(u64 limit_bytes) : limit_(limit_bytes) {}

  // Admits `bytes` that drain at `drained`, for a write ready at `ready`.
  // Returns the admission time: `ready`, or later if the write had to wait
  // for room.
  SimTime admit(SimTime ready, u64 bytes, SimTime drained) {
    // Reclaim space for writes that already drained.
    while (!pending_.empty() && pending_.front().first <= ready) pop();
    while (bytes_ + bytes > limit_ && !pending_.empty()) {
      ready = std::max(ready, pending_.front().first);
      pop();
    }
    pending_.emplace_back(drained, bytes);
    bytes_ += bytes;
    return ready;
  }

  // Flush barrier: empties the buffer and returns when the last admitted
  // write drains, or `now` if that is later.
  SimTime drain(SimTime now) {
    const SimTime done =
        pending_.empty() ? now : std::max(now, pending_.back().first);
    clear();
    return done;
  }

  void clear() {
    pending_.clear();
    bytes_ = 0;
  }

  // Bytes admitted and not yet drained (as of the last admit).
  [[nodiscard]] u64 bytes() const { return bytes_; }

 private:
  void pop() {
    bytes_ -= pending_.front().second;
    pending_.pop_front();
  }

  u64 limit_;
  std::deque<std::pair<SimTime, u64>> pending_;  // (drain done, bytes)
  u64 bytes_ = 0;
};

}  // namespace srcache::sim
