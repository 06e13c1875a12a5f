#include "flash/ftl.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace srcache::flash {

namespace {
constexpr u32 kNoBlock = ~0u;
}

VictimIndex::VictimIndex(u64 blocks, u64 max_valid)
    : words_(div_ceil(blocks, 64)),
      bits_((max_valid + 1) * words_, 0),
      count_(max_valid + 1, 0),
      min_(static_cast<u32>(max_valid + 1)) {}

u32 VictimIndex::pick() const {
  while (min_ < count_.size() && count_[min_] == 0) ++min_;
  if (min_ == count_.size()) return kNone;
  const u64* b = bucket(min_);
  for (u64 w = 0; w < words_; ++w) {
    if (b[w] != 0) return static_cast<u32>(w * 64 + std::countr_zero(b[w]));
  }
  return kNone;  // unreachable while count_ matches the bitsets
}

bool VictimIndex::holds(u32 blk, u32 valid) const {
  return valid < count_.size() && (bucket(valid)[blk / 64] & bit(blk)) != 0;
}

Ftl::Ftl(const FtlConfig& cfg) : cfg_(cfg) {
  if (cfg_.units <= 0 || cfg_.pages_per_block == 0 ||
      cfg_.exported_pages == 0) {
    throw std::invalid_argument(
        "Ftl: units, pages_per_block and exported_pages must be > 0");
  }
  const u64 needed = div_ceil(cfg_.exported_pages, cfg_.pages_per_block);
  const auto provisioned = static_cast<u64>(
      static_cast<double>(cfg_.exported_pages) * (1.0 + cfg_.ops_fraction));
  u64 physical = div_ceil(provisioned, cfg_.pages_per_block);
  // Commodity drives always keep an internal minimum spare so GC can make
  // progress even at "0% OPS" (§3.3): two open-block stripes plus margin.
  const u64 min_spare = 2 * static_cast<u64>(cfg_.units) + 8;
  physical = std::max(physical, needed + min_spare);

  l2p_.assign(cfg_.exported_pages, kUnmapped);
  p2l_.assign(physical * cfg_.pages_per_block, kUnmapped);
  blocks_.assign(physical, {});
  write_ptr_.assign(physical, 0);
  victims_ = VictimIndex(physical, cfg_.pages_per_block);
  // Ascending ids, popped from the back: the highest block id is allocated
  // first. The pinned outcomes depend on this order.
  free_.resize(physical);
  std::iota(free_.begin(), free_.end(), 0u);
  host_open_.assign(static_cast<size_t>(cfg_.units), kNoBlock);
  gc_open_.assign(static_cast<size_t>(cfg_.units), kNoBlock);
  gc_low_ = static_cast<u64>(cfg_.units) + 8;
}

u32 Ftl::take_free_block() {
  if (free_.empty()) {
    throw std::logic_error("Ftl: free block pool exhausted (GC margin bug)");
  }
  const u32 b = free_.back();
  free_.pop_back();
  blocks_[b].state = BlockState::kOpen;
  blocks_[b].valid = 0;
  write_ptr_[b] = 0;
  return b;
}

// Inline: one call per programmed page, on every host write and GC copy.
inline u32 Ftl::allocate_page(std::vector<u32>& open_blocks, u32& rr) {
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

void Ftl::invalidate(u32 ppage) {
  drop_valid(ppage / static_cast<u32>(cfg_.pages_per_block));
  p2l_[ppage] = kUnmapped;
}

NandOps Ftl::write(u64 lpage) {
  if (lpage >= cfg_.exported_pages) {
    throw std::out_of_range("Ftl::write beyond exported capacity");
  }
  NandOps ops;
  if (l2p_[lpage] != kUnmapped) {
    invalidate(l2p_[lpage]);
  } else {
    ++mapped_pages_;
  }
  const u32 ppage = allocate_page(host_open_, host_rr_);
  l2p_[lpage] = ppage;
  p2l_[ppage] = static_cast<u32>(lpage);
  ops.programs++;
  stats_.host_pages_written++;
  stats_.total_pages_programmed++;

  if (free_.size() < gc_low_) collect_garbage(ops);
  return ops;
}

bool Ftl::is_mapped(u64 lpage) const {
  return lpage < cfg_.exported_pages && l2p_[lpage] != kUnmapped;
}

void Ftl::trim(u64 lpage, u64 n) {
  const u64 end = std::min(lpage + n, cfg_.exported_pages);
  for (u64 p = lpage; p < end; ++p) {
    if (l2p_[p] == kUnmapped) continue;
    invalidate(l2p_[p]);
    l2p_[p] = kUnmapped;
    --mapped_pages_;
  }
}

void Ftl::collect_garbage(NandOps& ops) {
  // Two-phase greedy GC. Fully-invalid blocks are erased eagerly (free
  // space, no copying). Copy-back GC is deferred until the pool is
  // critically low: host streams that recycle whole erase groups then get
  // the chance to finish invalidating their blocks before any copying
  // happens — the mechanism that makes erase-group-aligned writes sustain
  // full bandwidth even at 0% OPS (Fig. 2).
  const u64 critical = static_cast<u64>(cfg_.units) + 6;
  while (free_.size() < gc_low_ + 4) {
    const u32 victim = pick_victim();
    if (victim == VictimIndex::kNone) return;
    if (blocks_[victim].valid > 0 && free_.size() >= critical) return;
    if (blocks_[victim].valid >= cfg_.pages_per_block) return;

    const u64 base = static_cast<u64>(victim) * cfg_.pages_per_block;
    for (u64 off = 0;
         off < cfg_.pages_per_block && blocks_[victim].valid > 0; ++off) {
      const u32 src = static_cast<u32>(base + off);
      const u32 lpage = p2l_[src];
      if (lpage == kUnmapped) continue;
      const u32 dst = allocate_page(gc_open_, gc_rr_);
      p2l_[src] = kUnmapped;
      drop_valid(victim);
      l2p_[lpage] = dst;
      p2l_[dst] = lpage;
      ops.gc_reads++;
      ops.programs++;
      stats_.gc_pages_copied++;
      stats_.total_pages_programmed++;
    }
    victims_.erase(victim, blocks_[victim].valid);
    blocks_[victim].state = BlockState::kFree;
    blocks_[victim].erase_count++;
    write_ptr_[victim] = 0;
    free_.push_back(victim);
    ops.erases++;
    stats_.blocks_erased++;
  }
}

Status Ftl::verify_consistency() const {
  const u64 ppb = cfg_.pages_per_block;
  // Every mapped logical page points at a physical page that points back,
  // so l2p is one-to-one into the mapped physical pages; equal counts on
  // both sides then make l2p and p2l inverses.
  u64 mapped = 0;
  for (u64 l = 0; l < l2p_.size(); ++l) {
    const u32 p = l2p_[l];
    if (p == kUnmapped) continue;
    ++mapped;
    if (p >= p2l_.size() || p2l_[p] != l)
      return Status(ErrorCode::kCorrupted, "l2p entry not mirrored in p2l");
  }
  if (mapped != mapped_pages_)
    return Status(ErrorCode::kCorrupted, "mapped page count drift");

  u64 mapped_phys = 0;
  u64 free_blocks = 0;
  u64 closed = 0;
  u32 scan_victim = VictimIndex::kNone;
  u32 scan_valid = ~0u;
  for (u32 b = 0; b < blocks_.size(); ++b) {
    const u32* pages = &p2l_[b * ppb];
    const auto valid = static_cast<u32>(
        ppb - static_cast<u64>(std::count(pages, pages + ppb, kUnmapped)));
    mapped_phys += valid;
    const BlockInfo& bi = blocks_[b];
    if (bi.valid != valid)
      return Status(ErrorCode::kCorrupted, "block valid count drift");
    if (bi.state == BlockState::kFree) {
      ++free_blocks;
      if (valid != 0)
        return Status(ErrorCode::kCorrupted, "free block holds data");
    }
    if ((bi.state == BlockState::kClosed) != victims_.holds(b, valid))
      return Status(ErrorCode::kCorrupted, "victim index membership drift");
    if (bi.state != BlockState::kClosed) continue;
    ++closed;
    if (write_ptr_[b] != ppb)
      return Status(ErrorCode::kCorrupted, "closed block not full");
    if (valid < scan_valid) {
      scan_victim = b;
      scan_valid = valid;
    }
  }
  if (mapped_phys != mapped_pages_)
    return Status(ErrorCode::kCorrupted, "p2l and l2p mapped counts differ");
  if (free_blocks != free_.size())
    return Status(ErrorCode::kCorrupted, "free list size drift");
  for (const u32 b : free_) {
    if (blocks_[b].state != BlockState::kFree)
      return Status(ErrorCode::kCorrupted, "free list holds a non-free block");
  }
  if (victims_.size() != closed)
    return Status(ErrorCode::kCorrupted, "victim index size drift");
  if (victims_.pick() != scan_victim)
    return Status(ErrorCode::kCorrupted,
                  "victim index pick differs from a linear scan");
  return Status::ok();
}

u32 Ftl::max_erase_count() const {
  u32 m = 0;
  for (const auto& b : blocks_) m = std::max(m, b.erase_count);
  return m;
}

double Ftl::mean_erase_count() const {
  u64 sum = 0;
  for (const auto& b : blocks_) sum += b.erase_count;
  return blocks_.empty() ? 0.0
                         : static_cast<double>(sum) /
                               static_cast<double>(blocks_.size());
}

}  // namespace srcache::flash
