#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "src_cache/src_config.hpp"

namespace srcache::src {
namespace {

using raid::RaidLevel;

constexpr u32 kSegmentsPerSg = 4;

SrcConfig config(RaidLevel raid, CleanRedundancy cr, u32 n, u64 chunk) {
  SrcConfig cfg;
  cfg.raid = raid;
  cfg.clean_redundancy = cr;
  cfg.num_ssds = n;
  cfg.chunk_bytes = chunk;
  cfg.erase_group_bytes = kSegmentsPerSg * chunk;
  cfg.region_bytes_per_ssd = 3 * cfg.erase_group_bytes;
  cfg.validate();
  return cfg;
}

// The parity columns a stripe with header `m` can carry: every SSD for a
// parity stripe, else column 0 (unused).
std::vector<u8> parity_cols(const SegmentLayout& layout, const SegmentMeta& m,
                            u32 n) {
  std::vector<u8> cols(layout.stripe(m).parity() ? n : 1);
  std::iota(cols.begin(), cols.end(), u8{0});
  return cols;
}

TEST(SegmentLayout, ChunksTileTheSegmentGroup) {
  for (const u64 chunk : {32 * KiB, 512 * KiB}) {
    const SegmentLayout l =
        config(RaidLevel::kRaid5, CleanRedundancy::kNPC, 4, chunk).layout();
    ASSERT_EQ(l.chunk_blocks, chunk / kBlockSize);
    for (u32 sg = 0; sg < 3; ++sg) {
      EXPECT_EQ(l.sg_base(sg), sg * l.eg_blocks);
      for (u32 seg = 0; seg < kSegmentsPerSg; ++seg) {
        const u64 base = l.sg_base(sg) + seg * l.chunk_blocks;
        EXPECT_EQ(l.ms_block(sg, seg), base);
        EXPECT_EQ(l.data_block(sg, seg), base + kSummaryBlocks);
        EXPECT_EQ(l.me_block(sg, seg), l.data_block(sg, seg) + l.rows());
        EXPECT_EQ(l.me_block(sg, seg) + kSummaryBlocks,
                  seg + 1 < kSegmentsPerSg ? l.ms_block(sg, seg + 1)
                                           : l.sg_base(sg + 1));
      }
    }
    EXPECT_EQ(l.rows(), l.chunk_blocks - 2 * kSummaryBlocks);
    EXPECT_EQ(l.seal_commands(), 3u * 4);
  }
}

TEST(SegmentLayout, EveryStripePlacesEverySlotOnce) {
  for (const RaidLevel raid : {RaidLevel::kRaid0, RaidLevel::kRaid1,
                               RaidLevel::kRaid4, RaidLevel::kRaid5}) {
    for (const CleanRedundancy cr :
         {CleanRedundancy::kPC, CleanRedundancy::kNPC}) {
      for (const u32 n : {2u, 4u, 6u, 8u}) {
        for (const u64 chunk : {32 * KiB, 512 * KiB}) {
          const SrcConfig cfg = config(raid, cr, n, chunk);
          const SegmentLayout l = cfg.layout();
          for (const bool dirty : {true, false}) {
            SegmentMeta m;
            m.sg = 2;
            m.seg = 3;
            m.dirty = dirty;
            m.redundant = l.redundant(dirty);
            EXPECT_EQ(m.redundant, cfg.segment_redundant(dirty));
            const u64 slots = l.data_slots(dirty);
            EXPECT_EQ(slots, cfg.segment_data_slots(dirty));
            EXPECT_EQ(slots % l.rows(), 0u);
            const u64 cols = slots / l.rows();
            for (const u8 pc : parity_cols(l, m, n)) {
              SCOPED_TRACE(std::string(raid::to_string(raid)) + " " +
                           to_string(cr) + (dirty ? " dirty" : " clean") +
                           " n=" + std::to_string(n) +
                           " chunk=" + std::to_string(chunk) +
                           " parity=" + std::to_string(pc));
              m.parity_col = pc;
              const Stripe st = l.stripe(m);
              const u64 first = l.data_block(m.sg, m.seg);
              std::set<std::pair<size_t, u64>> seen;
              for (u64 slot = 0; slot < slots; ++slot) {
                const SlotPlace p = st.place(slot);
                ASSERT_LT(p.dev, n);
                ASSERT_GE(p.block, first);
                ASSERT_LT(p.block, first + l.rows());
                if (st.parity()) {
                  ASSERT_NE(p.dev, st.parity_dev);
                }
                ASSERT_TRUE(seen.insert({p.dev, p.block}).second) << slot;
                if (st.mirrored()) {
                  ASSERT_LT(p.mirror, n);
                  ASSERT_NE(p.mirror, p.dev);
                  ASSERT_TRUE(seen.insert({p.mirror, p.block}).second);
                } else {
                  ASSERT_EQ(p.mirror, kNoDev);
                }
              }
              // Every data copy and the parity column fill the stripe.
              EXPECT_EQ(seen.size() + (st.parity() ? l.rows() : 0),
                        n * l.rows());
              // Column inverse.
              for (u64 col = 0; col < cols; ++col) {
                const SlotPlace p = st.at(col, 0);
                EXPECT_EQ(st.column(p.dev), col);
                if (p.mirror != kNoDev) {
                  EXPECT_EQ(st.column(p.mirror), col);
                }
              }
              if (st.parity()) {
                EXPECT_EQ(st.column(st.parity_dev), kParityColumn);
              }
            }
          }
        }
      }
    }
  }
}

TEST(SegmentLayout, ParityColumnRotatesOnRaid5Only) {
  for (const RaidLevel raid : {RaidLevel::kRaid0, RaidLevel::kRaid1,
                               RaidLevel::kRaid4, RaidLevel::kRaid5}) {
    const SegmentLayout l =
        config(raid, CleanRedundancy::kNPC, 4, 32 * KiB).layout();
    for (u64 gen = 1; gen < 10; ++gen) {
      const u8 want = raid == RaidLevel::kRaid4   ? 3
                      : raid == RaidLevel::kRaid5 ? gen % 4
                                                  : 0;
      EXPECT_EQ(l.parity_col(true, gen), want);
      EXPECT_EQ(l.parity_col(false, gen), 0u);  // no parity without redundancy
    }
  }
}

TEST(SegmentLayout, RebuildableMatchesRedundancyAtFourSsds) {
  // Per lacking-SSD mask (bit d = SSD d lacks its copy): plain stripes
  // tolerate none, parity stripes one, mirror stripes (pairs 0-2, 1-3) one
  // of each pair.
  const char* const plain = "T...............";
  const char* const parity = "TTT.T...T.......";
  const char* const mirror = "TTTTT.T.TT..T...";
  struct Case {
    RaidLevel raid;
    bool redundant;
    const char* table;
  };
  for (const Case c : {Case{RaidLevel::kRaid0, true, plain},
                       Case{RaidLevel::kRaid5, false, plain},
                       Case{RaidLevel::kRaid4, true, parity},
                       Case{RaidLevel::kRaid5, true, parity},
                       Case{RaidLevel::kRaid1, true, mirror}}) {
    const SegmentLayout l =
        config(c.raid, CleanRedundancy::kNPC, 4, 32 * KiB).layout();
    SegmentMeta m;
    m.redundant = c.redundant;
    for (u8 pc = 0; pc < 4; ++pc) {
      m.parity_col = pc;
      const Stripe st = l.stripe(m);
      for (u32 mask = 0; mask < 16; ++mask) {
        std::vector<char> lacking(4);
        for (u32 d = 0; d < 4; ++d) lacking[d] = (mask >> d) & 1 ? 1 : 0;
        EXPECT_EQ(st.rebuildable(lacking), c.table[mask] == 'T')
            << raid::to_string(c.raid) << " parity " << int{pc} << " mask "
            << mask;
      }
    }
  }
}

}  // namespace
}  // namespace srcache::src
