// Bench-owned timing wrappers at the simulator's public layer interfaces.
//
// Each wrapper implements the interface it wraps (CacheDevice, BlockDevice,
// Generator), forwards every call to the wrapped object, and times the
// calls that do simulated work. Spans nest on a per-thread stack: a span's
// self time is its inclusive time minus the inclusive time of the wrapped
// calls it makes, so the self times of all layers never double count and,
// with the untimed residual, sum to the engine's lane busy time.
//
// A LayerTimes belongs to one engine domain. A domain runs on one lane at a
// time and the engine's phase barriers order its lanes, so the accumulators
// need no atomics.
#pragma once

#include <array>
#include <chrono>
#include <memory>
#include <span>

#include "block/block_device.hpp"
#include "cache/cache_device.hpp"
#include "workload/generators.hpp"

namespace perfbench {

using srcache::u32;
using srcache::u64;

enum Layer : int {
  kBuild,         // domain factory, outside every wrapped call below
  kPrecondition,  // SimSsd::precondition during the build
  kWorkload,      // Generator::next
  kTier,          // TierCache submit/flush
  kSrcSubmit,     // SrcCache::submit
  kSrcFlush,      // SrcCache::flush
  kBaselines,     // FlashcacheLike submit/flush
  kRaid,          // RaidDevice I/O
  kFlash,         // SimSsd I/O (FTL included)
  kHdd,           // IscsiTarget I/O (the primary store)
  kNumLayers,
};

struct LayerTimes {
  std::array<double, kNumLayers> self_s{};
  std::array<u64, kNumLayers> calls{};
  std::array<u64, kNumLayers> read_blocks{};
  std::array<u64, kNumLayers> write_blocks{};

  void add(const LayerTimes& o) {
    for (int l = 0; l < kNumLayers; ++l) {
      self_s[l] += o.self_s[l];
      calls[l] += o.calls[l];
      read_blocks[l] += o.read_blocks[l];
      write_blocks[l] += o.write_blocks[l];
    }
  }
};

// RAII span. The innermost open span of this thread is `top_`; closing a
// span charges its inclusive time to the parent's child total.
class Span {
 public:
  using Clock = std::chrono::steady_clock;

  Span(LayerTimes& times, Layer layer)
      : times_(times), layer_(layer), parent_(top_), start_(Clock::now()) {
    top_ = this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    const double inclusive =
        std::chrono::duration<double>(Clock::now() - start_).count();
    times_.self_s[layer_] += inclusive - child_s_;
    times_.calls[layer_]++;
    if (parent_ != nullptr) parent_->child_s_ += inclusive;
    top_ = parent_;
  }

 private:
  static inline thread_local Span* top_ = nullptr;

  LayerTimes& times_;
  Layer layer_;
  Span* parent_;
  Clock::time_point start_;
  double child_s_ = 0.0;
};

class TimedCache final : public srcache::cache::CacheDevice {
 public:
  TimedCache(srcache::cache::CacheDevice* inner, LayerTimes& times,
             Layer submit_layer, Layer flush_layer)
      : inner_(inner),
        times_(times),
        submit_layer_(submit_layer),
        flush_layer_(flush_layer) {}

  srcache::sim::SimTime submit(const srcache::cache::AppRequest& req) override {
    const Span s(times_, submit_layer_);
    return inner_->submit(req);
  }
  srcache::sim::SimTime flush(srcache::sim::SimTime now) override {
    const Span s(times_, flush_layer_);
    return inner_->flush(now);
  }
  [[nodiscard]] const srcache::cache::CacheStats& stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] u64 cached_blocks() const override {
    return inner_->cached_blocks();
  }

 private:
  srcache::cache::CacheDevice* inner_;
  LayerTimes& times_;
  Layer submit_layer_;
  Layer flush_layer_;
};

class TimedDevice final : public srcache::blockdev::BlockDevice {
 public:
  using IoResult = srcache::blockdev::IoResult;
  using Payload = srcache::blockdev::Payload;
  using SimTime = srcache::sim::SimTime;

  TimedDevice(srcache::blockdev::BlockDevice* inner, LayerTimes& times,
              Layer layer)
      : inner_(inner), times_(times), layer_(layer) {}

  [[nodiscard]] u64 capacity_blocks() const override {
    return inner_->capacity_blocks();
  }
  IoResult read(SimTime now, u64 lba, u32 n,
                std::span<u64> tags_out) override {
    const Span s(times_, layer_);
    times_.read_blocks[layer_] += n;
    return inner_->read(now, lba, n, tags_out);
  }
  IoResult write(SimTime now, u64 lba, u32 n,
                 std::span<const u64> tags) override {
    const Span s(times_, layer_);
    times_.write_blocks[layer_] += n;
    return inner_->write(now, lba, n, tags);
  }
  IoResult write_payload(SimTime now, u64 lba, Payload payload) override {
    const Span s(times_, layer_);
    return inner_->write_payload(now, lba, std::move(payload));
  }
  srcache::Result<Payload> read_payload(SimTime now, u64 lba,
                                        SimTime* done) override {
    const Span s(times_, layer_);
    return inner_->read_payload(now, lba, done);
  }
  IoResult flush(SimTime now) override {
    const Span s(times_, layer_);
    return inner_->flush(now);
  }
  IoResult trim(SimTime now, u64 lba, u64 n) override {
    const Span s(times_, layer_);
    return inner_->trim(now, lba, n);
  }
  [[nodiscard]] const srcache::blockdev::DeviceStats& stats() const override {
    return inner_->stats();
  }
  void fail() override { inner_->fail(); }
  void heal() override { inner_->heal(); }
  [[nodiscard]] bool failed() const override { return inner_->failed(); }
  void replace_media() override { inner_->replace_media(); }
  void corrupt(u64 lba) override { inner_->corrupt(lba); }
  void inject_media_errors(u64 lba, u64 n) override {
    inner_->inject_media_errors(lba, n);
  }
  void clear_media_errors() override { inner_->clear_media_errors(); }
  void degrade_service(double factor, SimTime until) override {
    inner_->degrade_service(factor, until);
  }
  void set_background(bool background) override {
    inner_->set_background(background);
  }

 private:
  srcache::blockdev::BlockDevice* inner_;
  LayerTimes& times_;
  Layer layer_;
};

class TimedGenerator final : public srcache::workload::Generator {
 public:
  TimedGenerator(srcache::workload::Generator* inner, LayerTimes& times)
      : inner_(inner), times_(times) {}

  srcache::workload::Op next() override {
    const Span s(times_, kWorkload);
    return inner_->next();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  srcache::workload::Generator* inner_;
  LayerTimes& times_;
};

}  // namespace perfbench
