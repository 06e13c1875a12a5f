// Write-provenance ledger: attributes every write the cache issues — to the
// flash array and to primary storage — to a root cause at the call site,
// keyed per (device, tenant), in exact integer bytes.
//
// The paper's cost argument rests on controlling where write amplification
// comes from; aggregate WAF cannot distinguish GC rewrites from parity from
// destages. The ledger can, and it is *provably complete*: for every device
// the sum over causes equals the device's total written bytes
// (DeviceStats::write_blocks x block size), which provenance_test asserts
// after workloads that exercise every cause.
//
// Determinism: cells live in an ordered map and hold only u64 counts, so
// window deltas (delta_since) and cross-domain merges (merge_add) are exact
// integer arithmetic — the ledger is bit-identical across REPRO_THREADS by
// construction.
#pragma once

#include <array>
#include <map>
#include <string>
#include <utility>

#include "common/types.hpp"

namespace srcache::obs {

// Why a write happened. Recorded at the call site that decided to write.
enum class WriteCause : u8 {
  kUserWrite = 0,   // application write staged into the cache
  kMissFill = 1,    // read-miss data fetched from primary and admitted
  kGcRewrite = 2,   // live block copied forward by segment reclamation
  kParity = 3,      // redundancy & layout overhead: parity/mirror columns,
                    // MS/ME metadata blocks, padding slots, superblock
  kRepairRemap = 4, // block rewritten after checksum/media-error repair
  kDestage = 5,     // dirty block written back to primary by reclamation
  kQuotaShed = 6,   // write diverted/destaged because a tenant is over quota
  kRebuildCopy = 7, // block reconstructed onto a replacement device by the
                    // background rebuild engine (parity/mirror decode)
  kTierDestage = 8, // dirty block written back from the compressed DRAM
                    // tier into the flash cache (tier write-back)
  kTierDemote = 9,  // clean block demoted from the compressed DRAM tier and
                    // re-admitted into the flash cache
};
inline constexpr size_t kNumWriteCauses = 10;

const char* to_string(WriteCause c);

// Tenant id for bytes not attributable to one tenant (metadata, parity).
inline constexpr u16 kSharedTenant = 0xFFFF;
// Device id for writes to primary storage (destages, quota bypass). Flash
// totals exclude it; it exists so destage/quota_shed causes balance too.
inline constexpr u32 kPrimaryDevice = 0xFFFFFFFF;

class ProvenanceLedger {
 public:
  using Key = std::pair<u32, u16>;                 // (device, tenant)
  using Cell = std::array<u64, kNumWriteCauses>;   // bytes per cause

  void add(u32 device, u16 tenant, WriteCause cause, u64 bytes) {
    if (bytes == 0) return;
    auto [it, inserted] = cells_.try_emplace(Key{device, tenant});
    if (inserted) it->second.fill(0);
    it->second[static_cast<size_t>(cause)] += bytes;
  }

  // Exact window delta: this ledger minus an earlier snapshot of itself.
  // All-zero cells are dropped so the delta is canonical.
  [[nodiscard]] ProvenanceLedger delta_since(
      const ProvenanceLedger& earlier) const;

  // Exact integer sum (cross-domain merge).
  void merge_add(const ProvenanceLedger& other);

  [[nodiscard]] const std::map<Key, Cell>& cells() const { return cells_; }
  [[nodiscard]] bool empty() const { return cells_.empty(); }

  // Flash bytes: every device except kPrimaryDevice.
  [[nodiscard]] u64 flash_bytes() const;
  [[nodiscard]] u64 primary_bytes() const;
  [[nodiscard]] u64 device_bytes(u32 device) const;
  [[nodiscard]] u64 tenant_bytes(u16 tenant) const;  // across all devices
  [[nodiscard]] u64 cause_bytes(WriteCause c) const;

  // JSON object (the REPRO_JSON "provenance" block): exact totals plus
  // per-device and per-tenant breakdowns by cause. Deterministic order.
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<Key, Cell> cells_;
};

}  // namespace srcache::obs
