#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "common/crc32c.hpp"
#include "common/histogram.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace srcache {
namespace {

using common::crc32c;
using common::crc32c_of;
using common::Histogram;
using common::SplitMix64;
using common::Table;
using common::Xoshiro256;
using common::ZipfSampler;

// --- units ------------------------------------------------------------------

TEST(Types, UnitConstants) {
  EXPECT_EQ(KiB, 1024u);
  EXPECT_EQ(MiB, 1024u * 1024u);
  EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
  EXPECT_EQ(kBlockSize, 4096u);
}

TEST(Types, BytesToBlocksRoundsUp) {
  EXPECT_EQ(bytes_to_blocks(0), 0u);
  EXPECT_EQ(bytes_to_blocks(1), 1u);
  EXPECT_EQ(bytes_to_blocks(4096), 1u);
  EXPECT_EQ(bytes_to_blocks(4097), 2u);
  EXPECT_EQ(blocks_to_bytes(3), 12288u);
}

TEST(Types, DivCeil) {
  EXPECT_EQ(div_ceil(0, 5), 0u);
  EXPECT_EQ(div_ceil(10, 5), 2u);
  EXPECT_EQ(div_ceil(11, 5), 3u);
}

// --- crc32c -----------------------------------------------------------------

TEST(Crc32c, KnownVector) {
  // RFC 3720 test vector: 32 bytes of zeros -> 0x8A9136AA.
  std::vector<u8> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32c, KnownVectorOnes) {
  // RFC 3720: 32 bytes of 0xFF -> 0x62A8AB43.
  std::vector<u8> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32c, KnownVectorAscending) {
  // RFC 3720: bytes 0x00..0x1F -> 0x46DD794E.
  std::vector<u8> asc(32);
  for (size_t i = 0; i < asc.size(); ++i) asc[i] = static_cast<u8>(i);
  EXPECT_EQ(crc32c(asc), 0x46DD794Eu);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c({}), 0u); }

TEST(Crc32c, CheckValue) {
  // The standard CRC-32C check value over the ASCII digits "123456789".
  const std::string digits = "123456789";
  EXPECT_EQ(crc32c(std::span<const u8>(
                reinterpret_cast<const u8*>(digits.data()), digits.size())),
            0xE3069283u);
}

// Reference CRC-32C, one bit at a time with no tables.
u32 crc32c_reference(std::span<const u8> data, u32 seed = 0) {
  u32 c = ~seed;
  for (u8 b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
  }
  return ~c;
}

std::vector<u8> random_bytes(size_t n, u64 seed) {
  common::Xoshiro256 rng(seed);
  std::vector<u8> v(n);
  for (u8& b : v) b = static_cast<u8>(rng.next());
  return v;
}

TEST(Crc32c, MatchesReferenceAtEveryOffsetAndLength) {
  // Both the portable table path and the one crc32c dispatches to (the
  // SSE4.2 instruction where the host has it). Start offsets 0-7 make the
  // eight-byte steps unaligned; lengths 0-64 cover the tail loop alone and
  // every tail after whole steps; 6,084 bytes is a bench MS/ME payload.
  using Fn = u32 (*)(std::span<const u8>, u32);
  const std::pair<const char*, Fn> paths[] = {
      {"table", common::detail::crc32c_table}, {"dispatched", crc32c}};
  const std::vector<u8> buf = random_bytes(64 + 8, 11);
  const std::vector<u8> meta = random_bytes(6084, 13);
  for (const auto& [name, fn] : paths) {
    for (size_t off = 0; off < 8; ++off) {
      for (size_t len = 0; len <= 64; ++len) {
        const std::span<const u8> s(buf.data() + off, len);
        for (u32 seed : {0u, 0x12345678u}) {
          EXPECT_EQ(fn(s, seed), crc32c_reference(s, seed))
              << name << " off " << off << " len " << len << " seed " << seed;
        }
      }
    }
    for (u32 seed : {0u, 0x12345678u})
      EXPECT_EQ(fn(meta, seed), crc32c_reference(meta, seed))
          << name << " 6084 bytes, seed " << seed;
  }
}

TEST(Crc32c, ChainingEqualsOneShot) {
  const std::vector<u8> buf = random_bytes(64, 12);
  const std::span<const u8> all(buf);
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    EXPECT_EQ(crc32c(all.subspan(cut), crc32c(all.first(cut))), crc32c(all))
        << "cut " << cut;
  }
}

TEST(Crc32c, DifferentInputsDiffer) {
  EXPECT_NE(crc32c_of<u64>(1), crc32c_of<u64>(2));
  EXPECT_NE(crc32c_of<u64>(0x1234), crc32c_of<u32>(0x1234));
}

TEST(Crc32c, SingleBitFlipDetected) {
  for (int bit = 0; bit < 64; ++bit) {
    const u64 base = 0xDEADBEEF12345678ull;
    EXPECT_NE(crc32c_of(base), crc32c_of(base ^ (1ull << bit))) << bit;
  }
}

// --- Result / Status ---------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
}

TEST(Status, CarriesCodeAndMessage) {
  Status s(ErrorCode::kCorrupted, "bad block");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "corrupted: bad block");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r{Status(ErrorCode::kNotFound, "missing")};
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
  EXPECT_THROW(r.value(), std::logic_error);
}

TEST(Result, OkStatusRejected) {
  EXPECT_THROW(Result<int>{Status::ok()}, std::logic_error);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange) {
  Xoshiro256 r(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 r(5);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Xoshiro256 r(9);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, SplitMixExpandsSeeds) {
  SplitMix64 sm(0);
  const u64 a = sm.next(), b = sm.next();
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0u);
}

TEST(Zipf, RankZeroIsHottest) {
  ZipfSampler z(1000, 0.9, 11);
  std::map<u64, int> counts;
  for (int i = 0; i < 50000; ++i) counts[z.next()]++;
  int max_count = 0;
  u64 max_rank = 0;
  for (auto [rank, c] : counts)
    if (c > max_count) {
      max_count = c;
      max_rank = rank;
    }
  EXPECT_EQ(max_rank, 0u);
}

TEST(Zipf, SkewConcentratesMass) {
  ZipfSampler z(100000, 0.99, 13);
  int in_top_1pct = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (z.next() < 1000) ++in_top_1pct;
  // Zipf(0.99): the top 1% of ranks should carry far more than 1% of mass.
  EXPECT_GT(in_top_1pct, n / 4);
}

TEST(Zipf, StaysInRange) {
  ZipfSampler z(50, 0.5, 17);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.next(), 50u);
}

// --- histogram ---------------------------------------------------------------

TEST(Histogram, CountsMinMaxMean) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, PercentileMonotonic) {
  Histogram h;
  common::Xoshiro256 r(1);
  for (int i = 0; i < 10000; ++i) h.record(r.below(100000));
  double last = 0.0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = h.percentile(p);
    EXPECT_GE(v, last);
    last = v;
  }
}

TEST(Histogram, PercentileApproximatesUniform) {
  Histogram h;
  common::Xoshiro256 r(2);
  for (int i = 0; i < 100000; ++i) h.record(r.below(1u << 20));
  // Log-bucketed: expect the right order of magnitude, not exactness.
  EXPECT_GT(h.percentile(50), (1u << 18));
  EXPECT_LE(h.percentile(50), (1u << 20));
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.record(5);
  b.record(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 500u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(99), 0.0);
}

// --- table -------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "23456"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name        | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer-name | 23456 |"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NE(t.to_string().find("| 1 |"), std::string::npos);
}

}  // namespace
}  // namespace srcache
