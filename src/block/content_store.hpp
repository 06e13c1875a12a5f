// Sparse per-block content (tags + payloads) shared by all simulated devices.
#pragma once

#include <algorithm>
#include <unordered_map>

#include "block/block_device.hpp"

namespace srcache::blockdev {

// Tracks block content for a device. Tracking can be disabled for large
// performance-only runs; reads then report tag 0 and payload kNotFound.
class ContentStore {
 public:
  explicit ContentStore(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  void write(u64 lba, u32 n, std::span<const u64> tags) {
    if (!enabled_) return;
    for (u32 i = 0; i < n; ++i) {
      tags_[lba + i] = tags.empty() ? 0 : tags[i];
      payloads_.erase(lba + i);
    }
  }

  void write_payload(u64 lba, u32 n, Payload payload) {
    if (!enabled_) return;
    for (u32 i = 0; i < n; ++i) {
      tags_.erase(lba + i);
      payloads_.erase(lba + i);
    }
    payloads_[lba] = std::move(payload);
  }

  void read(u64 lba, u32 n, std::span<u64> tags_out) const {
    if (tags_out.empty()) return;
    // No tag stored (always so on a disabled store, until corrupt() flips
    // one): every block reads 0 without a probe.
    if (tags_.empty()) {
      std::fill_n(tags_out.begin(), n, u64{0});
      return;
    }
    for (u32 i = 0; i < n; ++i) {
      auto it = tags_.find(lba + i);
      tags_out[i] = it == tags_.end() ? 0 : it->second;
    }
  }

  [[nodiscard]] Result<Payload> read_payload(u64 lba) const {
    auto it = payloads_.find(lba);
    if (it == payloads_.end())
      return Status(ErrorCode::kNotFound, "no payload at block");
    return it->second;
  }

  void discard(u64 lba, u64 n) {
    if (!enabled_) return;
    for (u64 i = 0; i < n; ++i) {
      tags_.erase(lba + i);
      payloads_.erase(lba + i);
    }
  }

  // Silent corruption: flip tag bits; if the block holds a payload, flip a
  // byte so any serialized checksum no longer verifies.
  void corrupt(u64 lba) {
    if (auto it = payloads_.find(lba); it != payloads_.end()) {
      auto broken = std::make_shared<std::vector<u8>>(*it->second);
      if (!broken->empty()) (*broken)[broken->size() / 2] ^= 0xA5;
      it->second = std::move(broken);
      return;
    }
    tags_[lba] ^= 0xDEADBEEFCAFEBABEull;
  }

  void clear() {
    tags_.clear();
    payloads_.clear();
  }

 private:
  bool enabled_;
  std::unordered_map<u64, u64> tags_;
  std::unordered_map<u64, Payload> payloads_;
};

}  // namespace srcache::blockdev
