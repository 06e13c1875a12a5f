// The segment layout (§4.1, Fig. 3). Segment group s spans blocks
// [s × eg, (s + 1) × eg) of every SSD, its segments are one chunk per SSD
// each, in order, and a chunk holds the MS image, the data rows, then the ME
// image. A segment's stripe, built from its SegmentMeta header, says which
// SSD holds each data column and which holds redundancy; Stripe::survives,
// the one survival rule, says which columns outlive dead SSDs. No other SRC
// file knows a chunk offset or a RAID level, or decides what outlives them.
#pragma once

#include <algorithm>
#include <span>

#include "raid/raid_level.hpp"
#include "src_cache/segment_meta.hpp"

namespace srcache::src {

// Blocks each chunk reserves for MS at its head, and again for ME at its tail.
inline constexpr u64 kSummaryBlocks = 1;
inline constexpr size_t kNoDev = SIZE_MAX;
inline constexpr u64 kParityColumn = ~0ull;

// A data slot's device and block, and the device holding its RAID-1 mirror at
// the same block (kNoDev for other stripes).
struct SlotPlace {
  size_t dev;
  u64 block;
  size_t mirror = kNoDev;
};

// One segment's stripe. Slots are column-major: data column c holds slots
// [c × rows, (c + 1) × rows) in one chunk. A plain stripe (RAID-0, or a
// segment without redundancy) puts column c on SSD c, a parity stripe skips
// the parity SSD, and a mirror stripe puts column c on SSD c and its copy on
// SSD c + n/2. (RaidDevice pairs 2c with 2c + 1; moving SRC's pairing would
// move its RAID-1 outcomes.)
struct Stripe {
  enum class Kind : u8 { kPlain, kParity, kMirror };
  Kind kind;
  u32 n;
  u8 parity_dev;
  u64 rows;
  u64 data_block;

  [[nodiscard]] bool parity() const { return kind == Kind::kParity; }
  [[nodiscard]] bool mirrored() const { return kind == Kind::kMirror; }

  // Row `row` of data column `col`.
  [[nodiscard]] SlotPlace at(u64 col, u64 row) const {
    if (mirrored()) return {col, data_block + row, col + n / 2};
    return {parity() && col >= parity_dev ? col + 1 : col, data_block + row};
  }
  [[nodiscard]] SlotPlace place(u64 slot) const {
    return at(slot / rows, slot % rows);
  }
  // The data column SSD `dev` holds, as primary or mirror, or kParityColumn.
  [[nodiscard]] u64 column(size_t dev) const {
    if (mirrored()) return dev % (n / 2);
    if (!parity() || dev < parity_dev) return dev;
    return dev == parity_dev ? kParityColumn : dev - 1;
  }
  // The survival rule (§4.3): whether data column `col` can still be served
  // with the SSDs flagged in `dead` (one entry per SSD) out — yes if its own
  // SSD or its mirror is live, or if its stripe has parity and no other SSD
  // is dead.
  [[nodiscard]] bool survives(u64 col, std::span<const char> dead) const {
    const SlotPlace p = at(col, 0);
    if (dead[p.dev] == 0) return true;
    if (mirrored()) return dead[p.mirror] == 0;
    return parity() && std::count(dead.begin(), dead.end(), 1) == 1;
  }
  // Whether every column survives the SSDs flagged in `lacking`.
  [[nodiscard]] bool rebuildable(std::span<const char> lacking) const {
    for (size_t d = 0; d < lacking.size(); ++d) {
      const u64 col = column(d);
      if (col != kParityColumn && !survives(col, lacking)) return false;
    }
    return true;
  }
};

// The layout of one cache geometry; SrcConfig::layout() builds it.
struct SegmentLayout {
  raid::RaidLevel raid;
  u32 n;
  u64 eg_blocks;
  u64 chunk_blocks;
  bool parity_for_clean;  // PC: clean segments carry parity too

  // Data rows per chunk: all blocks but the MS and ME reservations.
  [[nodiscard]] u64 rows() const { return chunk_blocks - 2 * kSummaryBlocks; }
  [[nodiscard]] u64 sg_base(u32 sg) const { return u64{sg} * eg_blocks; }
  // The chunk of segment `seg` of SG `sg` starts with its MS blocks.
  [[nodiscard]] u64 ms_block(u32 sg, u32 seg) const {
    return sg_base(sg) + u64{seg} * chunk_blocks;
  }
  [[nodiscard]] u64 data_block(u32 sg, u32 seg) const {
    return ms_block(sg, seg) + kSummaryBlocks;
  }
  [[nodiscard]] u64 me_block(u32 sg, u32 seg) const {
    return data_block(sg, seg) + rows();
  }
  // Device commands one seal issues: MS, data rows and ME to every SSD.
  [[nodiscard]] u64 seal_commands() const { return 3 * u64{n}; }

  // Whether a segment of this type carries redundancy: RAID-1 mirrors every
  // segment, RAID-4/5 give dirty ones parity and clean ones only under PC.
  [[nodiscard]] bool redundant(bool dirty) const {
    if (raid == raid::RaidLevel::kRaid0) return false;
    return raid == raid::RaidLevel::kRaid1 || dirty || parity_for_clean;
  }
  [[nodiscard]] u64 data_slots(bool dirty) const {
    const auto level = redundant(dirty) ? raid : raid::RaidLevel::kRaid0;
    return raid::data_cols(level, n) * rows();
  }
  // The parity SSD of a segment sealed at `generation`: RAID-4 the last,
  // RAID-5 rotating by generation; 0 for stripes without parity.
  [[nodiscard]] u8 parity_col(bool redundant, u64 generation) const {
    if (kind(redundant) != Stripe::Kind::kParity) return 0;
    return static_cast<u8>(raid == raid::RaidLevel::kRaid4 ? n - 1
                                                           : generation % n);
  }
  [[nodiscard]] Stripe stripe(const SegmentMeta& m) const {
    return {kind(m.redundant), n, m.parity_col, rows(),
            data_block(m.sg, m.seg)};
  }
  [[nodiscard]] Stripe::Kind kind(bool redundant) const {
    if (!redundant || raid == raid::RaidLevel::kRaid0)
      return Stripe::Kind::kPlain;
    return raid == raid::RaidLevel::kRaid1 ? Stripe::Kind::kMirror
                                           : Stripe::Kind::kParity;
  }
};

}  // namespace srcache::src
