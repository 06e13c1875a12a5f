// The counter tables (block/counter_fields.hpp) against an oracle written
// without them: a RunResult whose counters are set by member name to
// distinct values, and the v7 key list of each REPRO_JSON block in order.
// run_json, a 3-part engine merge and the ClosedLoop window must each carry
// every value under its name, and a row added, dropped or reordered without
// a schema bump fails here.
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "block/mem_disk.hpp"
#include "engine/engine.hpp"
#include "obs/json.hpp"
#include "tier/tier_cache.hpp"
#include "workload/closed_loop.hpp"
#include "workload/report.hpp"

namespace srcache {
namespace {

using workload::RunResult;

constexpr double kUnchecked = std::numeric_limits<double>::quiet_NaN();

// One key of a REPRO_JSON block with the value sample() puts there. Counter
// values scale with the number of merged samples; derived values (ratios,
// degraded_seconds, the tenant index) do not; kUnchecked keys are pinned by
// name only.
struct Key {
  const char* name;
  double value = kUnchecked;
  bool derived = false;
};
using Keys = std::vector<Key>;

// app_flushes (113) is windowed and merged but not printed.
const Keys kCacheKeys = {
    {"app_read_ops", 101},
    {"app_read_blocks", 102},
    {"app_write_ops", 103},
    {"app_write_blocks", 104},
    {"read_hit_blocks", 105},
    {"read_miss_blocks", 106},
    {"write_hit_blocks", 107},
    {"write_new_blocks", 108},
    {"fetch_blocks", 109},
    {"destage_blocks", 110},
    {"gc_copy_blocks", 111},
    {"dropped_clean_blocks", 112},
};

// trim_ops (206) is merged but not printed.
const Keys kSsdKeys = {
    {"read_ops", 201},
    {"read_blocks", 202},
    {"write_ops", 203},
    {"write_blocks", 204},
    {"flushes", 205},
    {"trim_blocks", 207},
};

const Keys kFaultKeys = {
    {"events_fired", 301},
    {"injected", 302},
    {"detected", 303},
    {"repaired", 304},
    {"repaired_by_rebuild", 305},
    {"undetected", 306},
    {"first_fault_s"},
    {"healthy_mbps"},
    {"degraded_mbps"},
    {"degraded_read"},
    {"degraded_write"},
};

const Keys kRebuildKeys = {
    {"rebuilds_started", 401},
    {"rebuilds_completed", 402},
    {"rebuilds_aborted", 403},
    {"spares_total", 404},
    {"spares_used", 405},
    {"blocks_at_risk_peak", 406},
    {"blocks_copied", 407},
    {"blocks_skipped", 408},
    {"blocks_unrecovered", 409},
    {"read_bytes", 410},
    {"write_bytes", 411},
    {"degraded_seconds", 2.5, true},
};

const Keys kTierKeys = {
    {"hit_blocks", 501},
    {"miss_blocks", 502},
    {"hit_ratio", 501.0 / (501 + 502), true},
    {"admit_blocks", 503},
    {"bypass_blocks", 504},
    {"promote_blocks", 505},
    {"destage_blocks", 506},
    {"demote_blocks", 507},
    {"drop_blocks", 508},
    {"evict_blocks", 509},
    {"uncompressed_bytes", 510},
    {"compressed_bytes", 511},
    {"compression_ratio", 511.0 / 510.0, true},
    {"cpu_compress_ns", 512},
    {"cpu_decompress_ns", 513},
    {"lost_dirty_blocks", 514},
    {"resident_blocks", 601},
    {"resident_compressed_bytes", 602},
    {"dirty_blocks", 603},
    {"budget_bytes", 604},
};

// Tenant t's element: its index, then counters 701.. (t = 0) or 711..
// (t = 1).
Keys tenant_keys(u64 t) {
  const double base = 700 + 10 * static_cast<double>(t);
  return {
      {"tenant", static_cast<double>(t), true},
      {"ops", base + 1},
      {"bytes", base + 2},
      {"hit_blocks", base + 3},
      {"miss_blocks", base + 4},
      {"hit_ratio", (base + 3) / (base + 3 + base + 4), true},
      {"target_blocks", base + 5},
  };
}

// Every counter of every block set by name to a distinct value.
RunResult sample() {
  RunResult r;
  r.seconds = 1.0;
  cache::CacheStats& c = r.cache;
  c.app_read_ops = 101;
  c.app_read_blocks = 102;
  c.app_write_ops = 103;
  c.app_write_blocks = 104;
  c.read_hit_blocks = 105;
  c.read_miss_blocks = 106;
  c.write_hit_blocks = 107;
  c.write_new_blocks = 108;
  c.fetch_blocks = 109;
  c.destage_blocks = 110;
  c.gc_copy_blocks = 111;
  c.dropped_clean_blocks = 112;
  c.app_flushes = 113;
  blockdev::DeviceStats& d = r.ssd;
  d.read_ops = 201;
  d.read_blocks = 202;
  d.write_ops = 203;
  d.write_blocks = 204;
  d.flushes = 205;
  d.trim_ops = 206;
  d.trim_blocks = 207;
  workload::FaultOutcome& f = r.fault;
  f.active = true;
  f.events_fired = 301;
  f.injected = 302;
  f.detected = 303;
  f.repaired = 304;
  f.repaired_by_rebuild = 305;
  f.undetected = 306;
  raid::RebuildOutcome& b = r.rebuild;
  b.active = true;
  b.rebuilds_started = 401;
  b.rebuilds_completed = 402;
  b.rebuilds_aborted = 403;
  b.spares_total = 404;
  b.spares_used = 405;
  b.blocks_at_risk_peak = 406;
  b.blocks_copied = 407;
  b.blocks_skipped = 408;
  b.blocks_unrecovered = 409;
  b.read_bytes = 410;
  b.write_bytes = 411;
  b.degraded_ns = 2'500'000'000;
  workload::TierOutcome& t = r.tier;
  t.active = true;
  t.hit_blocks = 501;
  t.miss_blocks = 502;
  t.admit_blocks = 503;
  t.bypass_blocks = 504;
  t.promote_blocks = 505;
  t.destage_blocks = 506;
  t.demote_blocks = 507;
  t.drop_blocks = 508;
  t.evict_blocks = 509;
  t.uncompressed_bytes = 510;
  t.compressed_bytes = 511;
  t.cpu_compress_ns = 512;
  t.cpu_decompress_ns = 513;
  t.lost_dirty_blocks = 514;
  t.resident_blocks = 601;
  t.resident_compressed_bytes = 602;
  t.dirty_blocks = 603;
  t.budget_bytes = 604;
  r.tenants.resize(2);
  for (u64 i = 0; i < 2; ++i) {
    workload::TenantOutcome& n = r.tenants[i];
    n.ops = 701 + 10 * i;
    n.bytes = 702 + 10 * i;
    n.hit_blocks = 703 + 10 * i;
    n.miss_blocks = 704 + 10 * i;
    n.target_blocks = 705 + 10 * i;
  }
  return r;
}

// `block` holds exactly `keys` in order, counters at `scale` times their
// sample value.
void expect_block(const obs::JsonValue* block, const Keys& keys,
                  double scale) {
  ASSERT_NE(block, nullptr);
  ASSERT_TRUE(block->is_object());
  ASSERT_EQ(block->object.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto& [name, v] = block->object[i];
    EXPECT_EQ(name, keys[i].name) << "key " << i;
    if (std::isnan(keys[i].value)) continue;
    ASSERT_TRUE(v.is_number()) << name;
    const double want = keys[i].derived ? keys[i].value : keys[i].value * scale;
    EXPECT_DOUBLE_EQ(v.number, want) << name;
  }
}

obs::JsonValue run_doc(const RunResult& r) {
  Result<obs::JsonValue> doc =
      obs::parse_json(workload::run_json("test", "run", r));
  EXPECT_TRUE(doc.is_ok());
  return doc.is_ok() ? doc.value() : obs::JsonValue{};
}

void expect_every_block(const RunResult& r, double scale) {
  const obs::JsonValue run = run_doc(r);
  expect_block(run.find("cache"), kCacheKeys, scale);
  expect_block(run.find("ssd"), kSsdKeys, scale);
  expect_block(run.find("fault"), kFaultKeys, scale);
  expect_block(run.find("rebuild"), kRebuildKeys, scale);
  expect_block(run.find("tier"), kTierKeys, scale);
  const obs::JsonValue* tenants = run.find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->array.size(), 2u);
  for (u64 t = 0; t < 2; ++t)
    expect_block(&tenants->array[t], tenant_keys(t), scale);
}

TEST(ResultFields, RunJsonCarriesEveryRowUnderItsName) {
  expect_every_block(sample(), 1.0);
}

TEST(ResultFields, MergeSumsEveryRowOfThreeParts) {
  const RunResult m = engine::merge_results({sample(), sample(), sample()});
  expect_every_block(m, 3.0);
  // The rows left out of the JSON merge too.
  EXPECT_EQ(m.cache.app_flushes, 3 * 113u);
  EXPECT_EQ(m.ssd.trim_ops, 3 * 206u);
}

// A cache whose counters the test sets directly.
class FakeCache final : public cache::CacheDevice {
 public:
  sim::SimTime submit(const cache::AppRequest& req) override {
    return req.now + sim::kUs;
  }
  sim::SimTime flush(sim::SimTime now) override { return now; }
  [[nodiscard]] const cache::CacheStats& stats() const override { return s; }
  [[nodiscard]] u64 cached_blocks() const override { return 0; }

  cache::CacheStats s;
};

TEST(ResultFields, ClosedLoopWindowsEveryCacheRowAndSsdTraffic) {
  FakeCache cache;
  blockdev::MemDisk ssd(blockdev::MemDiskConfig{});
  workload::FioGen gen(workload::FioGen::Config{.span_blocks = 64});
  workload::RunConfig cfg;
  cfg.duration = sim::kMs;
  workload::ClosedLoop loop(&cache, {&ssd}, {&gen}, cfg);

  // Counts before start() stay out of the window.
  cache.s = sample().cache;
  (void)ssd.write(0, 0, 5, {});
  (void)ssd.read(0, 0, 4, {});
  loop.start();
  add_counters(cache.s, sample().cache, cache::kCacheStatsFields);
  (void)ssd.write(0, 8, 3, {});
  (void)ssd.read(0, 8, 2, {});
  const RunResult r = loop.finish();

  expect_block(run_doc(r).find("cache"), kCacheKeys, 1.0);
  EXPECT_EQ(r.cache.app_flushes, 113u);
  EXPECT_EQ(r.ssd.read_ops, 1u);
  EXPECT_EQ(r.ssd.read_blocks, 2u);
  EXPECT_EQ(r.ssd.write_ops, 1u);
  EXPECT_EQ(r.ssd.write_blocks, 3u);
}

TEST(ResultFields, ClosedLoopWindowsTierCounters) {
  FakeCache inner;
  tier::TierCache tier(tier::TierConfig{}, &inner);
  blockdev::MemDisk ssd(blockdev::MemDiskConfig{});
  workload::FioGen gen(workload::FioGen::Config{.span_blocks = 64});
  workload::RunConfig cfg;
  cfg.duration = sim::kMs;
  cfg.tier = &tier;
  workload::ClosedLoop loop(&tier, {&ssd}, {&gen}, cfg);

  // Half-compressible writes land in the tier: 4 before the window, 2 in it;
  // the window also reads the first 4 back.
  const auto submit = [&](bool is_write, u64 lba, u32 n) {
    cache::AppRequest req;
    req.is_write = is_write;
    req.lba = lba;
    req.nblocks = n;
    req.comp_pct = 50;
    (void)tier.submit(req);
  };
  submit(true, 0, 4);
  loop.start();
  submit(false, 0, 4);
  submit(true, 16, 2);
  const RunResult r = loop.finish();

  ASSERT_TRUE(r.tier.active);
  EXPECT_EQ(r.tier.hit_blocks, 4u);
  EXPECT_EQ(r.tier.miss_blocks, 0u);
  EXPECT_EQ(r.tier.admit_blocks, 2u);
  EXPECT_EQ(r.tier.uncompressed_bytes, 2 * kBlockSize);
  EXPECT_EQ(r.tier.compressed_bytes, kBlockSize);
  // Occupancy is end-of-window state, not a delta.
  EXPECT_EQ(r.tier.resident_blocks, 6u);
}

}  // namespace
}  // namespace srcache
