// Flat open-addressing hash table from block address (u64) to V: the per-op
// LBA tables of SrcCache, TierCache, FlashcacheLike and BcacheLike.
//
// - Probing: linear, from a Fibonacci hash (multiply by 2^64/phi, keep the
//   top bits) over a power-of-two slot count.
// - Layout: keys in one vector and values in a parallel one, so a probe
//   scans 8 keys per 64-byte cache line and a hit touches one value. Key
//   and value interleaved in one slot measured ~20% slower at this load, and
//   ~7% more peak memory at load 1/2.
// - Load factor: an insert that would pass 7/8 full doubles the table first.
// - Erase: backward shift. Later members of the cluster move back into the
//   gap, so there are no tombstones and churn never lengthens probes.
// - Empty key: ~0 marks an empty slot. It is already kDeadSlot and the tier
//   ring's hole, never a block address; emplace and operator[] reject it,
//   and find/contains/erase of it see no entry.
//
// Invalidation contract, stricter than std::unordered_map's:
// - an insert (emplace, or operator[] of an absent key) may rehash, which
//   invalidates every pointer, reference and iterator into the map;
// - an erase moves *other* entries, so it too invalidates every pointer,
//   reference and iterator, not only those to the erased entry.
// Lookups (find, at, contains) and writes through a returned reference
// invalidate nothing. Iteration visits entries in slot order, a function of
// the hash and of the insert/erase history: whole-map walks must feed
// order-insensitive consumers.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace srcache::common {

template <class V>
class FlatMap {
 public:
  static constexpr u64 kEmpty = ~u64{0};

  FlatMap() { rehash(kMinSlots); }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // The value stored under `key`, or nullptr.
  [[nodiscard]] V* find(u64 key) {
    const size_t i = slot_of(key);
    return keys_[i] == kEmpty ? nullptr : &vals_[i];
  }
  [[nodiscard]] const V* find(u64 key) const {
    const size_t i = slot_of(key);
    return keys_[i] == kEmpty ? nullptr : &vals_[i];
  }
  [[nodiscard]] bool contains(u64 key) const { return find(key) != nullptr; }
  // Starts loading the cache lines of key's home slot, so a lookup of key
  // issued a little later does not stall on memory. Changes nothing.
  void prefetch(u64 key) const {
    const size_t i = home(key);
    __builtin_prefetch(&keys_[i]);
    __builtin_prefetch(&vals_[i]);
  }
  [[nodiscard]] V& at(u64 key) {
    V* v = find(key);
    if (v == nullptr) throw std::out_of_range("FlatMap::at: no such key");
    return *v;
  }

  // Inserts key -> value unless key is present; returns whether it did.
  bool emplace(u64 key, const V& value) {
    const auto [i, fresh] = insert_slot(key);
    if (fresh) vals_[i] = value;
    return fresh;
  }
  // The value under key, value-initialised first if key was absent.
  V& operator[](u64 key) {
    const auto [i, fresh] = insert_slot(key);
    if (fresh) vals_[i] = V{};
    return vals_[i];
  }

  // Removes key; returns the number of entries removed (0 or 1).
  size_t erase(u64 key) {
    size_t hole = slot_of(key);
    if (keys_[hole] == kEmpty) return 0;
    // Pull each later cluster member whose probe passes the hole into it.
    for (size_t j = (hole + 1) & mask_; keys_[j] != kEmpty;
         j = (j + 1) & mask_) {
      if (((j - home(keys_[j])) & mask_) < ((j - hole) & mask_)) continue;
      keys_[hole] = keys_[j];
      vals_[hole] = std::move(vals_[j]);
      hole = j;
    }
    keys_[hole] = kEmpty;
    --size_;
    return 1;
  }

  // Empties the map; the slot count stays.
  void clear() {
    std::fill(keys_.begin(), keys_.end(), kEmpty);
    size_ = 0;
  }

  // Slot-order iteration; *it is a (key, value reference) pair.
  template <bool kConst>
  class Iter {
    using Map = std::conditional_t<kConst, const FlatMap, FlatMap>;
    using Ref = std::conditional_t<kConst, const V&, V&>;

   public:
    Iter(Map* m, size_t i) : m_(m), i_(i) { skip(); }
    std::pair<u64, Ref> operator*() const {
      return {m_->keys_[i_], m_->vals_[i_]};
    }
    Iter& operator++() {
      ++i_;
      skip();
      return *this;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    void skip() {
      while (i_ < m_->keys_.size() && m_->keys_[i_] == kEmpty) ++i_;
    }
    Map* m_;
    size_t i_;
  };
  [[nodiscard]] Iter<false> begin() { return {this, 0}; }
  [[nodiscard]] Iter<false> end() { return {this, keys_.size()}; }
  [[nodiscard]] Iter<true> begin() const { return {this, 0}; }
  [[nodiscard]] Iter<true> end() const { return {this, keys_.size()}; }

  // Introspection for tests: slot count, a key's home slot, and the slots a
  // lookup of `key` examines (hit: up to its slot; miss: up to the empty
  // slot that ends the probe).
  [[nodiscard]] size_t bucket_count() const { return keys_.size(); }
  [[nodiscard]] size_t bucket(u64 key) const { return home(key); }
  [[nodiscard]] size_t probe_length(u64 key) const {
    return ((slot_of(key) - home(key)) & mask_) + 1;
  }

 private:
  static constexpr size_t kMinSlots = 16;

  [[nodiscard]] size_t home(u64 key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  // The slot holding key, or the empty slot that ends its probe.
  [[nodiscard]] size_t slot_of(u64 key) const {
    size_t i = home(key);
    while (keys_[i] != key && keys_[i] != kEmpty) i = (i + 1) & mask_;
    return i;
  }
  // The slot of key, claimed for it (value untouched) if key was absent.
  std::pair<size_t, bool> insert_slot(u64 key) {
    if (key == kEmpty)
      throw std::invalid_argument("FlatMap: key ~0 is the empty marker");
    size_t i = slot_of(key);
    if (keys_[i] == key) return {i, false};
    if (size_ + 1 > keys_.size() / 8 * 7) {
      rehash(keys_.size() * 2);
      i = slot_of(key);
    }
    keys_[i] = key;
    ++size_;
    return {i, true};
  }
  void rehash(size_t slots) {
    std::vector<u64> old_keys(slots, kEmpty);
    std::vector<V> old_vals(slots);
    old_keys.swap(keys_);
    old_vals.swap(vals_);
    mask_ = slots - 1;
    shift_ = 64 - std::countr_zero(slots);
    for (size_t s = 0; s < old_keys.size(); ++s) {
      if (old_keys[s] == kEmpty) continue;
      const size_t i = slot_of(old_keys[s]);
      keys_[i] = old_keys[s];
      vals_[i] = std::move(old_vals[s]);
    }
  }

  std::vector<u64> keys_;
  std::vector<V> vals_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace srcache::common
