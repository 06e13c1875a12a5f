#include <gtest/gtest.h>

#include "block/mem_disk.hpp"

namespace srcache::blockdev {
namespace {

MemDiskConfig small_cfg() {
  MemDiskConfig cfg;
  cfg.capacity_blocks = 1024;
  cfg.op_latency = 10 * sim::kUs;
  cfg.bandwidth_mbps = 1000.0;
  cfg.flush_latency = 100 * sim::kUs;
  return cfg;
}

TEST(MemDisk, Capacity) {
  MemDisk d(small_cfg());
  EXPECT_EQ(d.capacity_blocks(), 1024u);
}

TEST(MemDisk, RejectsZeroCapacity) {
  MemDiskConfig cfg = small_cfg();
  cfg.capacity_blocks = 0;
  EXPECT_THROW(MemDisk{cfg}, std::invalid_argument);
}

TEST(MemDisk, WriteThenReadReturnsTags) {
  MemDisk d(small_cfg());
  const std::vector<u64> tags = {11, 22, 33};
  ASSERT_TRUE(d.write(0, 5, 3, tags).ok());
  std::vector<u64> out(3, 0);
  ASSERT_TRUE(d.read(0, 5, 3, out).ok());
  EXPECT_EQ(out, tags);
}

TEST(MemDisk, UnwrittenBlocksReadZero) {
  MemDisk d(small_cfg());
  std::vector<u64> out(2, 99);
  ASSERT_TRUE(d.read(0, 100, 2, out).ok());
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 0u);
}

TEST(MemDisk, OutOfBoundsRejected) {
  MemDisk d(small_cfg());
  EXPECT_EQ(d.read(0, 1023, 2, {}).error, ErrorCode::kInvalidArgument);
  EXPECT_EQ(d.write(0, 1024, 1, {}).error, ErrorCode::kInvalidArgument);
}

TEST(MemDisk, TimingIncludesLatencyAndTransfer) {
  MemDisk d(small_cfg());
  // 1 block = 4096 B at 1000 MB/s = 4.096 us, + 10 us latency.
  const auto r = d.write(0, 0, 1, {});
  EXPECT_EQ(r.done, 10 * sim::kUs + 4096);
}

TEST(MemDisk, OpsQueueOnDevice) {
  MemDisk d(small_cfg());
  const auto r1 = d.write(0, 0, 1, {});
  const auto r2 = d.write(0, 1, 1, {});
  EXPECT_GT(r2.done, r1.done);
}

TEST(MemDisk, PayloadRoundTrip) {
  MemDisk d(small_cfg());
  auto p = std::make_shared<std::vector<u8>>(std::vector<u8>{1, 2, 3});
  ASSERT_TRUE(d.write_payload(0, 7, p).ok());
  auto r = d.read_payload(0, 7, nullptr);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r.value(), (std::vector<u8>{1, 2, 3}));
}

TEST(MemDisk, PayloadOverwrittenByPlainWrite) {
  MemDisk d(small_cfg());
  d.write_payload(0, 7, std::make_shared<std::vector<u8>>(std::vector<u8>{1}));
  d.write(0, 7, 1, {});
  EXPECT_EQ(d.read_payload(0, 7, nullptr).code(), ErrorCode::kNotFound);
}

TEST(MemDisk, PayloadSpansBlocks) {
  MemDisk d(small_cfg());
  auto big = std::make_shared<std::vector<u8>>(kBlockSize + 100, u8{7});
  ASSERT_TRUE(d.write_payload(0, 10, big).ok());
  ASSERT_TRUE(d.read_payload(0, 10, nullptr).is_ok());
  // The second spanned block has no payload anchor of its own.
  EXPECT_FALSE(d.read_payload(0, 11, nullptr).is_ok());
}

TEST(MemDisk, TrimDiscardsContent) {
  MemDisk d(small_cfg());
  const std::vector<u64> tags = {5};
  d.write(0, 3, 1, tags);
  ASSERT_TRUE(d.trim(0, 3, 1).ok());
  std::vector<u64> out(1, 77);
  d.read(0, 3, 1, out);
  EXPECT_EQ(out[0], 0u);
}

TEST(MemDisk, FailedDeviceRejectsEverything) {
  MemDisk d(small_cfg());
  d.fail();
  EXPECT_TRUE(d.failed());
  EXPECT_EQ(d.read(0, 0, 1, {}).error, ErrorCode::kDeviceFailed);
  EXPECT_EQ(d.write(0, 0, 1, {}).error, ErrorCode::kDeviceFailed);
  EXPECT_EQ(d.flush(0).error, ErrorCode::kDeviceFailed);
  EXPECT_EQ(d.trim(0, 0, 1).error, ErrorCode::kDeviceFailed);
  d.heal();
  EXPECT_TRUE(d.read(0, 0, 1, {}).ok());
}

TEST(MemDisk, CorruptFlipsTag) {
  MemDisk d(small_cfg());
  const std::vector<u64> tags = {0x1234};
  d.write(0, 9, 1, tags);
  d.corrupt(9);
  std::vector<u64> out(1);
  d.read(0, 9, 1, out);
  EXPECT_NE(out[0], 0x1234u);
}

TEST(MemDisk, CorruptBreaksPayload) {
  MemDisk d(small_cfg());
  auto p = std::make_shared<std::vector<u8>>(std::vector<u8>{1, 2, 3, 4});
  d.write_payload(0, 4, p);
  d.corrupt(4);
  auto r = d.read_payload(0, 4, nullptr);
  ASSERT_TRUE(r.is_ok());
  EXPECT_NE(*r.value(), (std::vector<u8>{1, 2, 3, 4}));
}

TEST(MemDisk, StatsAccumulate) {
  MemDisk d(small_cfg());
  d.write(0, 0, 4, {});
  d.read(0, 0, 2, {});
  d.flush(0);
  d.trim(0, 0, 8);
  const DeviceStats& s = d.stats();
  EXPECT_EQ(s.write_ops, 1u);
  EXPECT_EQ(s.write_blocks, 4u);
  EXPECT_EQ(s.read_ops, 1u);
  EXPECT_EQ(s.read_blocks, 2u);
  EXPECT_EQ(s.flushes, 1u);
  EXPECT_EQ(s.trim_blocks, 8u);
}

TEST(DeviceStatsOps, Subtraction) {
  DeviceStats a{10, 100, 20, 200, 3, 1, 8};
  DeviceStats b{4, 40, 5, 50, 1, 0, 0};
  DeviceStats d = a;
  sub_counters(d, b, kDeviceStatsFields);
  EXPECT_EQ(d.read_ops, 6u);
  EXPECT_EQ(d.write_blocks, 150u);
  EXPECT_EQ(d.total_blocks(), 60u + 150u);
}

TEST(MakeTag, DistinctPerLbaAndVersion) {
  EXPECT_NE(make_tag(1, 1), make_tag(2, 1));
  EXPECT_NE(make_tag(1, 1), make_tag(1, 2));
}

}  // namespace
}  // namespace srcache::blockdev
