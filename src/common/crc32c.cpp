#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace srcache::common {
namespace {

constexpr u32 kPoly = 0x82F63B78u;  // reversed Castagnoli polynomial

// Slicing-by-8 tables: kTables[0] is the byte-wise table, and kTables[k][i]
// is the CRC of byte i followed by k zero bytes, so eight table lookups
// advance the CRC over eight input bytes at once.
using Tables = std::array<std::array<u32, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (u32 i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian load, whatever the host byte order and alignment.
u32 load_le32(const u8* p) {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

#if defined(__x86_64__)
// SSE4.2's crc32 instruction computes CRC-32C directly, eight bytes per
// step (x86 is little-endian, so an unaligned memcpy load is the LE load).
__attribute__((target("sse4.2"))) u32 crc32c_sse42(std::span<const u8> data,
                                                   u32 seed) {
  u64 c = seed ^ 0xFFFFFFFFu;
  const u8* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    u64 v;
    std::memcpy(&v, p, sizeof(v));
    c = _mm_crc32_u64(c, v);
  }
  u32 c32 = static_cast<u32>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

using Crc32cFn = u32 (*)(std::span<const u8>, u32);

// The host's fastest path, chosen once.
Crc32cFn pick_crc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return detail::crc32c_table;
}

}  // namespace

namespace detail {

u32 crc32c_table(std::span<const u8> data, u32 seed) {
  const auto& t = kTables;
  u32 c = seed ^ 0xFFFFFFFFu;
  const u8* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const u32 lo = c ^ load_le32(p);
    const u32 hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace detail

u32 crc32c(std::span<const u8> data, u32 seed) {
  static const Crc32cFn impl = pick_crc32c();
  return impl(data, seed);
}

}  // namespace srcache::common
