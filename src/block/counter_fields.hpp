// Declarative counter blocks: every u64 block a run windows, merges across
// shard domains and prints to REPRO_JSON declares its fields once, as a
// constexpr table of rows beside its struct, and these helpers walk the
// table. It lives beside DeviceStats, the lowest layer with such a block.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace srcache {

// One row, in REPRO_JSON order: a u64 counter that windows and sums, or a
// ratio derived from the counters (printed, never summed). A row with
// json == false is windowed and merged but not printed.
template <class S>
struct CounterField {
  const char* name;
  u64 S::*counter = nullptr;
  double (S::*ratio)() const = nullptr;
  bool json = true;
};

// num / den, or `if_zero` when den is 0: the arithmetic of the ratio rows.
constexpr double ratio_of(u64 num, u64 den, double if_zero = 0.0) {
  return den == 0 ? if_zero
                  : static_cast<double>(num) / static_cast<double>(den);
}

// True when S holds exactly the rows' counters plus `other_bytes` of other
// members, so a counter added without a row fails the table's static_assert.
template <class S, size_t N>
constexpr bool names_every_counter(const CounterField<S> (&rows)[N],
                                   size_t other_bytes = 0) {
  size_t counters = 0;
  for (const CounterField<S>& f : rows) counters += f.counter != nullptr;
  return sizeof(S) == counters * sizeof(u64) + other_bytes;
}

// into += from over the counter rows (T is the table's struct or derives
// from it).
template <class T, class Rows>
void add_counters(T& into, const T& from, const Rows& rows) {
  for (const auto& f : rows)
    if (f.counter != nullptr) into.*f.counter += from.*f.counter;
}

// into -= before over the counter rows: a measurement-window delta.
template <class T, class Rows>
void sub_counters(T& into, const T& before, const Rows& rows) {
  for (const auto& f : rows)
    if (f.counter != nullptr) into.*f.counter -= before.*f.counter;
}

// Writes the json rows in order through `w.kv(name, value)`.
template <class W, class T, class Rows>
void emit_counters(W& w, const T& s, const Rows& rows) {
  for (const auto& f : rows) {
    if (!f.json) continue;
    if (f.counter != nullptr) {
      w.kv(f.name, s.*f.counter);
    } else {
      w.kv(f.name, (s.*f.ratio)());
    }
  }
}

}  // namespace srcache
