// CRC-32C (Castagnoli), the checksum SRC stores alongside each cached block
// and inside every segment-metadata block (paper §4.1, "Metadata management").
#pragma once

#include <cstddef>
#include <span>

#include "common/types.hpp"

namespace srcache::common {

// One-shot CRC-32C over a byte span. seed allows chaining. Runs on the
// SSE4.2 crc32 instruction where the host has it (checked once), else on
// the portable table path.
u32 crc32c(std::span<const u8> data, u32 seed = 0);

namespace detail {
// The portable slicing-by-8 path, exposed so tests check it on any host.
u32 crc32c_table(std::span<const u8> data, u32 seed = 0);
}  // namespace detail

// Convenience: checksum of a trivially-copyable value (e.g. a block tag).
template <typename T>
u32 crc32c_of(const T& v, u32 seed = 0) {
  static_assert(std::is_trivially_copyable_v<T>);
  return crc32c(std::span<const u8>(reinterpret_cast<const u8*>(&v), sizeof(v)),
                seed);
}

}  // namespace srcache::common
