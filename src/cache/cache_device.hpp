// The application-facing caching interface implemented by SRC and by the
// Bcache/Flashcache baselines: a block cache interposed between the host and
// primary storage, exactly where the Device Mapper target sits in the
// paper's prototype.
#pragma once

#include "block/block_device.hpp"
#include "sim/time.hpp"

namespace srcache::cache {

using sim::SimTime;

struct AppRequest {
  SimTime now = 0;
  bool is_write = false;
  u64 lba = 0;     // 4 KiB block address in primary-storage space
  u32 nblocks = 1;
  u32 tenant = 0;  // owning tenant in multi-tenant runs (0 otherwise)
  // Compressed size of each block as a percentage of kBlockSize, stamped by
  // the workload layer (deterministic per LBA). 0 means "unknown" — a
  // compressed tier treats such blocks as incompressible.
  u8 comp_pct = 0;
  // Optional content: `tags` supplies one tag per block on writes;
  // `tags_out` (capacity nblocks) receives block content on reads. Both may
  // be null for performance-only runs.
  const u64* tags = nullptr;
  u64* tags_out = nullptr;
};

// Cache-level accounting. Device-level I/O amplification is computed by the
// run harness from the SSD DeviceStats (so it includes metadata, parity and
// GC traffic regardless of which layer issued it).
struct CacheStats {
  u64 app_read_ops = 0;
  u64 app_read_blocks = 0;
  u64 app_write_ops = 0;
  u64 app_write_blocks = 0;

  u64 read_hit_blocks = 0;
  u64 read_miss_blocks = 0;
  u64 write_hit_blocks = 0;  // writes to an already-cached block
  u64 write_new_blocks = 0;

  u64 fetch_blocks = 0;      // primary -> cache fills
  u64 destage_blocks = 0;    // cache -> primary write-backs
  u64 gc_copy_blocks = 0;    // cache-internal (S2S) copies
  u64 dropped_clean_blocks = 0;
  u64 app_flushes = 0;

  // Fraction of accessed blocks already present in the cache.
  [[nodiscard]] double hit_ratio() const {
    return ratio_of(read_hit_blocks + write_hit_blocks, app_blocks());
  }
  [[nodiscard]] u64 app_blocks() const {
    return app_read_blocks + app_write_blocks;
  }
};

// The REPRO_JSON "cache" block. The closed loop never flushes, so
// app_flushes is windowed and merged but not printed.
inline constexpr CounterField<CacheStats> kCacheStatsFields[] = {
    {"app_read_ops", &CacheStats::app_read_ops},
    {"app_read_blocks", &CacheStats::app_read_blocks},
    {"app_write_ops", &CacheStats::app_write_ops},
    {"app_write_blocks", &CacheStats::app_write_blocks},
    {"read_hit_blocks", &CacheStats::read_hit_blocks},
    {"read_miss_blocks", &CacheStats::read_miss_blocks},
    {"write_hit_blocks", &CacheStats::write_hit_blocks},
    {"write_new_blocks", &CacheStats::write_new_blocks},
    {"fetch_blocks", &CacheStats::fetch_blocks},
    {"destage_blocks", &CacheStats::destage_blocks},
    {"gc_copy_blocks", &CacheStats::gc_copy_blocks},
    {"dropped_clean_blocks", &CacheStats::dropped_clean_blocks},
    {.name = "app_flushes", .counter = &CacheStats::app_flushes, .json = false},
};
static_assert(names_every_counter(kCacheStatsFields));

class CacheDevice {
 public:
  virtual ~CacheDevice() = default;

  // Serves one request; returns its completion time.
  virtual SimTime submit(const AppRequest& req) = 0;

  // Application/file-system flush (fsync). Baselines differ in whether they
  // honor it (Bcache) or ignore it (Flashcache, §3.1).
  virtual SimTime flush(SimTime now) = 0;

  [[nodiscard]] virtual const CacheStats& stats() const = 0;

  // Number of distinct blocks currently cached (for utilization checks).
  [[nodiscard]] virtual u64 cached_blocks() const = 0;
};

}  // namespace srcache::cache
