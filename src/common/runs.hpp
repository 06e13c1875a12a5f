// Run coalescing: the cache layers and RaidDevice turn sorted per-block
// work lists into one device command per contiguous run.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace srcache::common {

// Splits `items` into maximal runs in which every entry continues the one
// before it (`adjacent(prev, next)`) and calls `fn(first, count)` once per
// run, in order. A template rather than std::function: it sits on the
// cache-hit read path.
template <typename Seq, typename Adjacent, typename Fn>
void for_each_run(const Seq& items, Adjacent&& adjacent, Fn&& fn) {
  size_t i = 0;
  while (i < items.size()) {
    size_t j = i + 1;
    while (j < items.size() && adjacent(items[j - 1], items[j])) ++j;
    fn(i, j - i);
    i = j;
  }
}

// `adjacent` for a sorted list of block numbers.
inline constexpr auto consecutive = [](u64 prev, u64 next) {
  return next == prev + 1;
};

}  // namespace srcache::common
