// Page-mapped Flash Translation Layer.
//
// This is the mechanism behind every observation the paper builds on: small
// random overwrites force the FTL to copy live pages during internal garbage
// collection (write amplification), while host writes recycled in units of
// the *erase group* — the set of flash blocks filled in parallel across all
// dies — invalidate whole blocks and keep amplification near 1. The erase
// group size therefore equals parallel_units × block_bytes (§2.1, §3.3,
// Fig. 2), and over-provisioning trades capacity for GC efficiency.
//
// The FTL is purely a placement/accounting engine; SimSsd converts the
// returned operation counts into NAND time.
#pragma once

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace srcache::flash {

struct FtlConfig {
  // Parallel NAND units (channels × dies). Host and GC write streams are
  // striped page-by-page across this many open blocks.
  int units = 32;
  u64 pages_per_block = 2048;  // 4 KiB pages -> 8 MiB flash blocks
  u64 exported_pages = 0;      // logical capacity in 4 KiB pages
  // Over-provisioned fraction of exported capacity (0.0 means "only the
  // internal minimum spare", as commodity drives always reserve a little).
  double ops_fraction = 0.07;

  [[nodiscard]] u64 erase_group_pages() const {
    return static_cast<u64>(units) * pages_per_block;
  }
};

// NAND work performed by one host operation (including any internal GC it
// triggered). SimSsd turns these into time on the NAND servers.
struct NandOps {
  u64 programs = 0;   // host + GC page programs
  u64 gc_reads = 0;   // GC copy-back page reads
  u64 erases = 0;

  NandOps& operator+=(const NandOps& o) {
    programs += o.programs;
    gc_reads += o.gc_reads;
    erases += o.erases;
    return *this;
  }
};

// Lifetime/accounting counters (cost model, Fig. 6).
struct FtlStats {
  u64 host_pages_written = 0;
  u64 total_pages_programmed = 0;
  u64 gc_pages_copied = 0;
  u64 blocks_erased = 0;

  // NAND-level write amplification.
  [[nodiscard]] double write_amplification() const {
    return host_pages_written == 0
               ? 1.0
               : static_cast<double>(total_pages_programmed) /
                     static_cast<double>(host_pages_written);
  }
};

// Greedy GC victim index: the closed blocks, bucketed by valid-page count,
// one bitset over block ids per count plus a per-count population. pick()
// returns the lowest block id in the lowest non-empty bucket, which is the
// block a linear scan for the fewest valid pages (first found wins) returns.
// Victim selection is one axis of the FTL design space (EagleTree), so this
// sits behind Ftl::gc_victim and a different policy replaces only it.
class VictimIndex {
 public:
  static constexpr u32 kNone = ~0u;

  VictimIndex() = default;
  VictimIndex(u64 blocks, u64 max_valid);

  void insert(u32 blk, u32 valid) {
    bucket(valid)[blk / 64] |= bit(blk);
    ++count_[valid];
    ++size_;
    min_ = std::min(min_, valid);
  }
  void erase(u32 blk, u32 valid) {
    bucket(valid)[blk / 64] &= ~bit(blk);
    --count_[valid];
    --size_;
  }
  void move(u32 blk, u32 from, u32 to) {
    bucket(from)[blk / 64] &= ~bit(blk);
    bucket(to)[blk / 64] |= bit(blk);
    --count_[from];
    ++count_[to];
    min_ = std::min(min_, to);
  }
  // Lowest block id among those with the fewest valid pages, or kNone.
  [[nodiscard]] u32 pick() const {
    while (min_ < count_.size() && count_[min_] == 0) ++min_;
    if (min_ == count_.size()) return kNone;
    const u64* b = bucket(min_);
    for (u64 w = 0; w < words_; ++w) {
      if (b[w] != 0) return static_cast<u32>(w * 64 + std::countr_zero(b[w]));
    }
    return kNone;  // unreachable while count_ matches the bitsets
  }
  [[nodiscard]] bool holds(u32 blk, u32 valid) const;
  [[nodiscard]] u64 size() const { return size_; }

 private:
  static u64 bit(u32 blk) { return u64{1} << (blk % 64); }
  u64* bucket(u32 valid) { return &bits_[valid * words_]; }
  const u64* bucket(u32 valid) const { return &bits_[valid * words_]; }

  // (max_valid + 1) bitsets over block ids, words_ words each, and the
  // number of blocks in each.
  u64 words_ = 0;
  std::vector<u64> bits_;
  std::vector<u32> count_;
  u64 size_ = 0;
  // No non-empty bucket lies below this; pick() advances it past buckets
  // that emptied since.
  mutable u32 min_ = 0;
};

class Ftl {
 public:
  explicit Ftl(const FtlConfig& cfg);

  // Maps and programs one logical page; runs GC if free space is low.
  NandOps write(u64 lpage) { return write_range(lpage, 1); }
  // Maps and programs logical pages [lpage, lpage + n) in order, checking
  // for GC after each page, so it leaves the state n one-page writes would;
  // the range is bounds-checked once, up front. Returns the NAND work of
  // all n pages.
  NandOps write_range(u64 lpage, u64 n) {
    if (n > cfg_.exported_pages || lpage > cfg_.exported_pages - n) {
      throw std::out_of_range("Ftl::write beyond exported capacity");
    }
    NandOps ops;
    for (u64 p = lpage; p < lpage + n; ++p) {
      if (l2p_[p] != kUnmapped) {
        invalidate(l2p_[p]);
      } else {
        ++mapped_pages_;
      }
      const u32 ppage = allocate_page(host_open_, host_rr_);
      l2p_[p] = ppage;
      p2l_[ppage] = static_cast<u32>(p);
      if (free_.size() < gc_low_) collect_garbage(ops);
    }
    ops.programs += n;
    stats_.host_pages_written += n;
    stats_.total_pages_programmed += n;
    return ops;
  }
  // True if the logical page is mapped (affects read timing: unmapped reads
  // return zeroes without touching NAND).
  [[nodiscard]] bool is_mapped(u64 lpage) const {
    return lpage < cfg_.exported_pages && l2p_[lpage] != kUnmapped;
  }
  // Mapped pages in [lpage, lpage + n); pages past capacity count as
  // unmapped, as is_mapped() has them.
  [[nodiscard]] u64 mapped_count(u64 lpage, u64 n) const {
    const u64 end = range_end(lpage, n);
    u64 mapped = 0;
    for (u64 p = lpage; p < end; ++p) mapped += l2p_[p] != kUnmapped ? 1 : 0;
    return mapped;
  }
  // Unmaps a range (TRIM), clamped to capacity. Cheap: only map/valid-count
  // updates.
  void trim(u64 lpage, u64 n);

  [[nodiscard]] const FtlConfig& config() const { return cfg_; }
  [[nodiscard]] const FtlStats& stats() const { return stats_; }
  [[nodiscard]] u64 free_blocks() const { return free_.size(); }
  [[nodiscard]] u64 total_blocks() const { return blocks_.size(); }
  [[nodiscard]] u64 mapped_pages() const { return mapped_pages_; }
  // Highest erase count over all blocks (wear; cost model uses the mean).
  [[nodiscard]] u32 max_erase_count() const;
  [[nodiscard]] double mean_erase_count() const;

  // Debug/verification: physical page for a logical page, or kUnmapped.
  static constexpr u32 kUnmapped = ~0u;
  [[nodiscard]] u32 l2p(u64 lpage) const { return l2p_[lpage]; }

  // Internal-invariant audit for tests: l2p and p2l are inverses, each
  // block's valid count equals its mapped pages, the free list and block
  // states agree, and the victim index holds exactly the closed blocks and
  // picks what a linear scan picks. Returns the first violated invariant.
  [[nodiscard]] Status verify_consistency() const;

 private:
  enum class BlockState : u8 { kFree, kOpen, kClosed };

  struct BlockInfo {
    u32 valid = 0;
    u32 erase_count = 0;
    BlockState state = BlockState::kFree;
  };

  static constexpr u32 kNoBlock = ~0u;

  // End of [lpage, lpage + n) clamped to the exported capacity.
  [[nodiscard]] u64 range_end(u64 lpage, u64 n) const {
    return lpage >= cfg_.exported_pages
               ? lpage
               : lpage + std::min(n, cfg_.exported_pages - lpage);
  }

  // Takes the next page of a unit's open block and counts it valid; the
  // block closes, and joins the victim index, with its last page. Pages
  // are only ever added to open blocks. Inline: one call per programmed
  // page, on every host write and GC copy.
  u32 allocate_page(std::vector<u32>& open_blocks, u32& rr) {
    const u32 unit = rr++ % static_cast<u32>(cfg_.units);
    u32 blk = open_blocks[unit];
    if (blk == kNoBlock) {
      blk = take_free_block();
      open_blocks[unit] = blk;
    }
    blocks_[blk].valid++;
    const u32 off = write_ptr_[blk]++;
    if (write_ptr_[blk] >= cfg_.pages_per_block) {
      blocks_[blk].state = BlockState::kClosed;
      victims_.insert(blk, blocks_[blk].valid);
      open_blocks[unit] = kNoBlock;
    }
    return blk * static_cast<u32>(cfg_.pages_per_block) + off;
  }
  u32 take_free_block();
  // Every valid-page loss goes through here, so a closed block moves down
  // the victim buckets with it. Dropping `lost` pages at once lands it in
  // the bucket, and leaves the index's low-water mark, where one page at a
  // time would.
  void drop_valid(u32 blk, u32 lost = 1) {
    BlockInfo& b = blocks_[blk];
    if (b.state == BlockState::kClosed)
      victims_.move(blk, b.valid, b.valid - lost);
    b.valid -= lost;
  }
  void invalidate(u32 ppage) {
    drop_valid(ppage / static_cast<u32>(cfg_.pages_per_block));
    p2l_[ppage] = kUnmapped;
  }
  // Runs GC when the free pool is low. Inline are its first-pass exits,
  // which end most calls: no victim yet worth taking.
  void collect_garbage(NandOps& ops) {
    const u32 victim = gc_victim();
    if (victim != VictimIndex::kNone) reclaim_from(victim, ops);
  }
  // The block GC takes next, or kNone where it stops: no closed block, a
  // victim with live pages while the pool is not yet critically low, or a
  // victim with nothing to free.
  [[nodiscard]] u32 gc_victim() const {
    const u32 victim = victims_.pick();
    if (victim == VictimIndex::kNone) return victim;
    const u32 valid = blocks_[victim].valid;
    if (valid > 0 && free_.size() >= gc_critical_) return VictimIndex::kNone;
    if (valid >= cfg_.pages_per_block) return VictimIndex::kNone;
    return victim;
  }
  void reclaim_from(u32 victim, NandOps& ops);

  FtlConfig cfg_;
  FtlStats stats_;
  std::vector<u32> l2p_;          // logical page -> physical page
  std::vector<u32> p2l_;          // physical page -> logical page
  std::vector<BlockInfo> blocks_;
  std::vector<u32> free_;         // free block ids (LIFO)
  std::vector<u32> host_open_;    // per-unit open blocks for host writes
  std::vector<u32> gc_open_;      // per-unit open blocks for GC writes
  std::vector<u32> write_ptr_;    // next page offset per open block id
  VictimIndex victims_;           // closed blocks by valid count
  std::vector<u32> trim_lost_;    // trim(): pages lost per block, else 0
  std::vector<u32> trim_blocks_;  // trim(): blocks with a nonzero count
  u32 host_rr_ = 0;
  u32 gc_rr_ = 0;
  u64 mapped_pages_ = 0;
  u64 gc_low_;                    // run GC when free blocks fall below this
  u64 gc_critical_;               // copy live pages only below this
};

}  // namespace srcache::flash
