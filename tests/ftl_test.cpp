#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "flash/ftl.hpp"
#include "flash/sim_ssd.hpp"
#include "flash/ssd_specs.hpp"

namespace srcache::flash {
namespace {

FtlConfig tiny_cfg(double ops = 0.1) {
  FtlConfig cfg;
  cfg.units = 4;
  cfg.pages_per_block = 64;
  cfg.exported_pages = 16 * 1024;  // 64 MiB logical
  cfg.ops_fraction = ops;
  return cfg;
}

TEST(Ftl, RejectsBadConfig) {
  FtlConfig cfg = tiny_cfg();
  cfg.exported_pages = 0;
  EXPECT_THROW(Ftl{cfg}, std::invalid_argument);
}

TEST(Ftl, EraseGroupPages) {
  EXPECT_EQ(tiny_cfg().erase_group_pages(), 4u * 64u);
}

TEST(Ftl, MapsWrittenPages) {
  Ftl ftl(tiny_cfg());
  EXPECT_FALSE(ftl.is_mapped(5));
  ftl.write(5);
  EXPECT_TRUE(ftl.is_mapped(5));
  EXPECT_EQ(ftl.mapped_pages(), 1u);
}

TEST(Ftl, OverwriteKeepsSingleMapping) {
  Ftl ftl(tiny_cfg());
  ftl.write(5);
  const u32 p1 = ftl.l2p(5);
  ftl.write(5);
  const u32 p2 = ftl.l2p(5);
  EXPECT_NE(p1, p2);  // out-of-place update
  EXPECT_EQ(ftl.mapped_pages(), 1u);
}

TEST(Ftl, StripesAcrossUnits) {
  // Consecutive writes land in different flash blocks (one open block per
  // parallel unit) — the mechanism behind the large erase group.
  Ftl ftl(tiny_cfg());
  const u64 ppb = ftl.config().pages_per_block;
  ftl.write(0);
  ftl.write(1);
  ftl.write(2);
  ftl.write(3);
  const u32 b0 = ftl.l2p(0) / ppb;
  const u32 b1 = ftl.l2p(1) / ppb;
  const u32 b2 = ftl.l2p(2) / ppb;
  const u32 b3 = ftl.l2p(3) / ppb;
  EXPECT_NE(b0, b1);
  EXPECT_NE(b1, b2);
  EXPECT_NE(b2, b3);
  EXPECT_NE(b0, b3);
}

TEST(Ftl, SequentialFillNoGc) {
  Ftl ftl(tiny_cfg(0.1));
  for (u64 p = 0; p < ftl.config().exported_pages; ++p) ftl.write(p);
  EXPECT_DOUBLE_EQ(ftl.stats().write_amplification(), 1.0);
  EXPECT_EQ(ftl.stats().blocks_erased, 0u);
}

TEST(Ftl, SequentialOverwriteStaysNearWaOne) {
  Ftl ftl(tiny_cfg(0.1));
  const u64 n = ftl.config().exported_pages;
  for (int pass = 0; pass < 3; ++pass)
    for (u64 p = 0; p < n; ++p) ftl.write(p);
  // Whole erase groups are invalidated together: GC finds empty victims.
  EXPECT_LT(ftl.stats().write_amplification(), 1.05);
}

TEST(Ftl, RandomOverwriteCausesGcCopies) {
  Ftl ftl(tiny_cfg(0.1));
  const u64 n = ftl.config().exported_pages;
  for (u64 p = 0; p < n; ++p) ftl.write(p);  // fill
  common::Xoshiro256 rng(42);
  for (u64 i = 0; i < 4 * n; ++i) ftl.write(rng.below(n));
  EXPECT_GT(ftl.stats().write_amplification(), 1.5);
  EXPECT_GT(ftl.stats().blocks_erased, 0u);
}

TEST(Ftl, MoreOpsLowersWriteAmplification) {
  auto run = [](double ops) {
    Ftl ftl(tiny_cfg(ops));
    const u64 n = ftl.config().exported_pages;
    for (u64 p = 0; p < n; ++p) ftl.write(p);
    common::Xoshiro256 rng(7);
    for (u64 i = 0; i < 4 * n; ++i) ftl.write(rng.below(n));
    return ftl.stats().write_amplification();
  };
  const double wa_low_ops = run(0.05);
  const double wa_high_ops = run(0.40);
  EXPECT_LT(wa_high_ops, wa_low_ops);
}

TEST(Ftl, EraseGroupAlignedOverwritesAvoidGc) {
  // Overwriting whole erase groups (units × block pages, temporally
  // contiguous) leaves only fully-invalid victims: WA stays ~1 even at
  // low OPS. This is the Fig. 2 saturation mechanism.
  Ftl ftl(tiny_cfg(0.05));
  const u64 n = ftl.config().exported_pages;
  const u64 eg = ftl.config().erase_group_pages();
  for (u64 p = 0; p < n; ++p) ftl.write(p);
  common::Xoshiro256 rng(9);
  const u64 groups = n / eg;
  for (u64 i = 0; i < 6 * groups; ++i) {
    const u64 g = rng.below(groups);
    for (u64 p = g * eg; p < (g + 1) * eg; ++p) ftl.write(p);
  }
  EXPECT_LT(ftl.stats().write_amplification(), 1.1);
}

TEST(Ftl, SubEraseGroupOverwritesCauseGc) {
  // Same volume, but in quarter-erase-group extents: victims are ~75%
  // valid, so GC must copy.
  Ftl ftl(tiny_cfg(0.05));
  const u64 n = ftl.config().exported_pages;
  const u64 ext = ftl.config().erase_group_pages() / 4;
  for (u64 p = 0; p < n; ++p) ftl.write(p);
  common::Xoshiro256 rng(9);
  const u64 extents = n / ext;
  for (u64 i = 0; i < 6 * extents; ++i) {
    const u64 e = rng.below(extents);
    for (u64 p = e * ext; p < (e + 1) * ext; ++p) ftl.write(p);
  }
  EXPECT_GT(ftl.stats().write_amplification(), 1.3);
}

TEST(Ftl, TrimUnmapsAndFreesSpace) {
  Ftl ftl(tiny_cfg(0.1));
  const u64 n = ftl.config().exported_pages;
  for (u64 p = 0; p < n; ++p) ftl.write(p);
  ftl.trim(0, n / 2);
  EXPECT_EQ(ftl.mapped_pages(), n / 2);
  EXPECT_FALSE(ftl.is_mapped(0));
  EXPECT_TRUE(ftl.is_mapped(n / 2));
  // Rewriting the trimmed half should find GC-free victims.
  const auto before = ftl.stats().gc_pages_copied;
  for (u64 p = 0; p < n / 2; ++p) ftl.write(p);
  EXPECT_EQ(ftl.stats().gc_pages_copied, before);
}

TEST(Ftl, TrimBeyondCapacityClamps) {
  Ftl ftl(tiny_cfg());
  ftl.write(1);
  ftl.trim(0, ~0ull);  // must not crash
  EXPECT_EQ(ftl.mapped_pages(), 0u);
}

TEST(Ftl, WriteBeyondCapacityThrows) {
  Ftl ftl(tiny_cfg());
  EXPECT_THROW(ftl.write(ftl.config().exported_pages), std::out_of_range);
}

TEST(Ftl, WearTracking) {
  Ftl ftl(tiny_cfg(0.1));
  const u64 n = ftl.config().exported_pages;
  common::Xoshiro256 rng(3);
  for (u64 i = 0; i < 6 * n; ++i) ftl.write(rng.below(n));
  EXPECT_GT(ftl.max_erase_count(), 0u);
  EXPECT_GT(ftl.mean_erase_count(), 0.0);
  EXPECT_GE(ftl.max_erase_count(), static_cast<u32>(ftl.mean_erase_count()));
}

TEST(Ftl, ValidCountInvariant) {
  // Mapped pages must equal the sum of block valid counts at all times.
  Ftl ftl(tiny_cfg(0.08));
  const u64 n = ftl.config().exported_pages;
  common::Xoshiro256 rng(5);
  for (u64 i = 0; i < 3 * n; ++i) {
    if (rng.chance(0.05)) {
      const u64 start = rng.below(n);
      ftl.trim(start, rng.below(64) + 1);
    } else {
      ftl.write(rng.below(n));
    }
  }
  // Re-derive the census through the public mapping view.
  u64 mapped = 0;
  for (u64 p = 0; p < n; ++p) mapped += ftl.is_mapped(p) ? 1 : 0;
  EXPECT_EQ(mapped, ftl.mapped_pages());
}

TEST(Ftl, FreeBlocksStayAboveFloor) {
  Ftl ftl(tiny_cfg(0.06));
  const u64 n = ftl.config().exported_pages;
  common::Xoshiro256 rng(6);
  for (u64 i = 0; i < 5 * n; ++i) {
    ftl.write(rng.below(n));
    ASSERT_GT(ftl.free_blocks(), 0u);
  }
}

// --- Differential audit: victim index against a linear scan ---------------
//
// Seeded random writes and trims, half of the writes from a sequential
// cursor (whole blocks go invalid: zero-copy victims) and half at random
// (partly valid victims: copy-back GC). verify_consistency() runs after
// every op, so the first op that breaks the mapping, a valid count or the
// victim index's agreement with a linear scan fails at once.

constexpr u64 kAuditedOps = 100'000;
// 32 units x 64 pages: 2048-page erase groups; four of them exported. At
// this size the internal minimum spare (two stripes plus 8 blocks) exceeds
// 7% OPS, so the 0% and 7% setups get the same 200 physical blocks; OPS
// sets the physical size only past ~1030 exported blocks, too large to
// audit after every op.
constexpr u64 kAuditPages = 4 * 32 * 64;

template <typename WriteFn, typename TrimFn, typename AuditFn>
void run_audited(u64 pages, u64 seed, WriteFn&& write, TrimFn&& trim,
                 AuditFn&& audit) {
  common::Xoshiro256 rng(seed);
  u64 cursor = 0;
  for (u64 i = 0; i < kAuditedOps; ++i) {
    const double r = rng.uniform();
    if (r < 0.02) {
      trim(rng.below(pages), rng.below(256) + 1);
    } else if (r < 0.51) {
      write(cursor);
      cursor = (cursor + 1) % pages;
    } else {
      write(rng.below(pages));
    }
    const Status s = audit();
    ASSERT_TRUE(s.is_ok()) << "op " << i << ": " << s.to_string();
  }
}

FtlConfig audit_cfg(int units, u64 exported_pages, double ops) {
  FtlConfig cfg;
  cfg.units = units;
  cfg.pages_per_block = 64;
  cfg.exported_pages = exported_pages;
  cfg.ops_fraction = ops;
  return cfg;
}

void audit_ftl(const FtlConfig& cfg, u64 seed) {
  Ftl ftl(cfg);
  run_audited(
      cfg.exported_pages, seed, [&](u64 p) { ftl.write(p); },
      [&](u64 p, u64 n) { ftl.trim(p, n); },
      [&] { return ftl.verify_consistency(); });
  // Both GC phases ran: whole-block erases and copy-back.
  EXPECT_GT(ftl.stats().blocks_erased, 0u);
  EXPECT_GT(ftl.stats().gc_pages_copied, 0u);
}

TEST(FtlAudit, VictimIndexMatchesScanAtZeroOps) {
  audit_ftl(audit_cfg(32, kAuditPages, 0.0), 21);
}

TEST(FtlAudit, VictimIndexMatchesScanAtSevenPercentOps) {
  audit_ftl(audit_cfg(32, kAuditPages, 0.07), 22);
}

TEST(FtlAudit, VictimIndexMatchesScanOnNvmeSpec) {
  // Table 12's 90-unit NVMe drive, its flash blocks cut to 64 pages so
  // that two erase groups stay small enough to audit after every op.
  const SsdSpec nvme = spec_c_mlc_nvme();
  ASSERT_EQ(nvme.units, 90);
  audit_ftl(audit_cfg(nvme.units, 2 * 90 * 64, nvme.ops_fraction), 23);
}

// --- Range operations against page-at-a-time ones --------------------------
//
// Two FTLs run one seeded script of multi-page writes and trims: one through
// write_range() and multi-page trim(), the other one page per call. Writes
// run from a sequential cursor (whole-block victims) or at random (partly
// valid victims), up to one erase group long, so commands enter copy-back
// GC part way through. Every command's NAND work must match, and at the end
// the stats, every l2p entry and both audits. (Random-offset overwrites of
// several erase groups on a two-group drive can empty the free pool, page
// by page as well; ROADMAP lists that GC-reserve fault.)

void check_range_ops(const FtlConfig& cfg, u64 seed) {
  Ftl range(cfg);
  Ftl pages(cfg);
  const u64 n_pages = cfg.exported_pages;
  const u64 eg = cfg.erase_group_pages();
  common::Xoshiro256 rng(seed);
  u64 cursor = 0;
  u64 copyback_commands = 0;
  for (int cmd = 0; cmd < 4000; ++cmd) {
    const double r = rng.uniform();
    const u64 len = rng.chance(0.1) ? rng.below(eg) + 1 : rng.below(64) + 1;
    if (r < 0.1) {
      // Trims may run past capacity; both sides clamp.
      const u64 start = rng.below(n_pages);
      range.trim(start, len);
      for (u64 p = start; p < start + len; ++p) pages.trim(p, 1);
      u64 mapped = 0;
      for (u64 p = start; p < start + len; ++p) mapped += pages.is_mapped(p);
      ASSERT_EQ(range.mapped_count(start, len), mapped) << "cmd " << cmd;
      continue;
    }
    const u64 start = r < 0.55 ? cursor : rng.below(n_pages);
    const u64 n = std::min(len, n_pages - start);
    const NandOps got = range.write_range(start, n);
    NandOps want;
    for (u64 p = start; p < start + n; ++p) want += pages.write(p);
    ASSERT_EQ(got.programs, want.programs) << "cmd " << cmd;
    ASSERT_EQ(got.gc_reads, want.gc_reads) << "cmd " << cmd;
    ASSERT_EQ(got.erases, want.erases) << "cmd " << cmd;
    if (got.gc_reads > 0) ++copyback_commands;
    if (r < 0.55) cursor = (start + n) % n_pages;
  }
  EXPECT_GT(copyback_commands, 0u);
  const FtlStats& a = range.stats();
  const FtlStats& b = pages.stats();
  EXPECT_EQ(a.host_pages_written, b.host_pages_written);
  EXPECT_EQ(a.total_pages_programmed, b.total_pages_programmed);
  EXPECT_EQ(a.gc_pages_copied, b.gc_pages_copied);
  EXPECT_EQ(a.blocks_erased, b.blocks_erased);
  EXPECT_EQ(range.mapped_pages(), pages.mapped_pages());
  EXPECT_EQ(range.free_blocks(), pages.free_blocks());
  EXPECT_EQ(range.mapped_count(0, n_pages), range.mapped_pages());
  for (u64 p = 0; p < n_pages; ++p)
    ASSERT_EQ(range.l2p(p), pages.l2p(p)) << "page " << p;
  const Status sa = range.verify_consistency();
  const Status sb = pages.verify_consistency();
  EXPECT_TRUE(sa.is_ok()) << sa.to_string();
  EXPECT_TRUE(sb.is_ok()) << sb.to_string();
}

TEST(Ftl, RangeOpsMatchPageOps) {
  check_range_ops(audit_cfg(32, kAuditPages, 0.0), 31);
  check_range_ops(audit_cfg(32, kAuditPages, 0.07), 32);
  const SsdSpec nvme = spec_c_mlc_nvme();
  check_range_ops(audit_cfg(nvme.units, 2 * 90 * 64, nvme.ops_fraction), 33);
}

TEST(Ftl, RangeWriteBeyondCapacityThrows) {
  Ftl ftl(tiny_cfg());
  const u64 n = ftl.config().exported_pages;
  EXPECT_THROW(ftl.write_range(n - 4, 5), std::out_of_range);
  EXPECT_THROW(ftl.write_range(1, ~0ull), std::out_of_range);
  // The one up-front check rejects the command before any page is written.
  EXPECT_EQ(ftl.mapped_pages(), 0u);
  EXPECT_EQ(ftl.write_range(n - 4, 4).programs, 4u);
  EXPECT_EQ(ftl.write_range(n, 0).programs, 0u);
  EXPECT_EQ(ftl.mapped_count(n - 4, ~0ull), 4u);
}

TEST(FtlAudit, VictimIndexMatchesScanAfterReplaceMedia) {
  // A media swap replaces the FTL wholesale; the new one must start with an
  // empty index, not the old drive's closed blocks.
  SsdSpec spec = spec_840pro_128();
  spec.pages_per_block = 64;
  spec.capacity_bytes = kAuditPages * kBlockSize;
  SimSsd ssd(spec, /*track_content=*/false);
  ssd.precondition();
  ASSERT_TRUE(ssd.ftl().verify_consistency().is_ok());
  ssd.replace_media();
  ASSERT_EQ(ssd.ftl().mapped_pages(), 0u);
  ASSERT_TRUE(ssd.ftl().verify_consistency().is_ok());
  SimTime now = 0;
  run_audited(
      ssd.capacity_blocks(), 24,
      [&](u64 p) { now = ssd.write(now, p, 1, {}).done; },
      [&](u64 p, u64 n) {
        ssd.trim(now, p, std::min(n, ssd.capacity_blocks() - p));
      },
      [&] { return ssd.ftl().verify_consistency(); });
  EXPECT_GT(ssd.ftl().stats().gc_pages_copied, 0u);
}

}  // namespace
}  // namespace srcache::flash
