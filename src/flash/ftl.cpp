#include "flash/ftl.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace srcache::flash {

VictimIndex::VictimIndex(u64 blocks, u64 max_valid)
    : words_(div_ceil(blocks, 64)),
      bits_((max_valid + 1) * words_, 0),
      count_(max_valid + 1, 0),
      min_(static_cast<u32>(max_valid + 1)) {}

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
  trim_lost_.assign(physical, 0);
  victims_ = VictimIndex(physical, cfg_.pages_per_block);
  // Ascending ids, popped from the back: the highest block id is allocated
  // first. The pinned outcomes depend on this order.
  free_.resize(physical);
  std::iota(free_.begin(), free_.end(), 0u);
  host_open_.assign(static_cast<size_t>(cfg_.units), kNoBlock);
  gc_open_.assign(static_cast<size_t>(cfg_.units), kNoBlock);
  gc_low_ = static_cast<u64>(cfg_.units) + 8;
  gc_critical_ = static_cast<u64>(cfg_.units) + 6;
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

void Ftl::trim(u64 lpage, u64 n) {
  // A range written in one pass is striped page by page over `units`
  // blocks, so its pages' valid-count losses are summed per block and
  // applied once for each block.
  const auto ppb = static_cast<u32>(cfg_.pages_per_block);
  const u64 end = range_end(lpage, n);
  for (u64 p = lpage; p < end; ++p) {
    const u32 ppage = l2p_[p];
    if (ppage == kUnmapped) continue;
    const u32 blk = ppage / ppb;
    if (trim_lost_[blk]++ == 0) trim_blocks_.push_back(blk);
    p2l_[ppage] = kUnmapped;
    l2p_[p] = kUnmapped;
    --mapped_pages_;
  }
  for (const u32 blk : trim_blocks_) {
    drop_valid(blk, trim_lost_[blk]);
    trim_lost_[blk] = 0;
  }
  trim_blocks_.clear();
}

void Ftl::reclaim_from(u32 victim, NandOps& ops) {
  // Two-phase greedy GC. Fully-invalid blocks are erased eagerly (free
  // space, no copying). Copy-back GC is deferred until the pool is
  // critically low: host streams that recycle whole erase groups then get
  // the chance to finish invalidating their blocks before any copying
  // happens — the mechanism that makes erase-group-aligned writes sustain
  // full bandwidth even at 0% OPS (Fig. 2). gc_victim() decides when to
  // stop; it has already picked `victim`.
  do {
    // The victim leaves the index before its live pages move out, so the
    // copies need not walk it down the buckets one page at a time.
    BlockInfo& vb = blocks_[victim];
    victims_.erase(victim, vb.valid);
    const u64 base = static_cast<u64>(victim) * cfg_.pages_per_block;
    for (u64 off = 0; off < cfg_.pages_per_block && vb.valid > 0; ++off) {
      const u32 src = static_cast<u32>(base + off);
      const u32 lpage = p2l_[src];
      if (lpage == kUnmapped) continue;
      const u32 dst = allocate_page(gc_open_, gc_rr_);
      p2l_[src] = kUnmapped;
      --vb.valid;
      l2p_[lpage] = dst;
      p2l_[dst] = lpage;
      ops.gc_reads++;
      ops.programs++;
      stats_.gc_pages_copied++;
      stats_.total_pages_programmed++;
    }
    vb.state = BlockState::kFree;
    vb.erase_count++;
    write_ptr_[victim] = 0;
    free_.push_back(victim);
    ops.erases++;
    stats_.blocks_erased++;
  } while (free_.size() < gc_low_ + 4 &&
           (victim = gc_victim()) != VictimIndex::kNone);
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
