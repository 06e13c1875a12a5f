// The segment summary (§4.1 "Metadata management"): one record per
// segment, held in RAM by SrcCache (SrcCache::SegmentInfo is this record
// plus its live count) and written to SSD twice per chunk, as MS at the head
// and ME at the tail of each per-SSD chunk. An extension of the LFS summary
// block: checksummed, versioned, and carrying per-block LBA and content
// checksums so that recovery and silent-corruption detection work from the
// SSDs alone. A seal fills the segment's record and serializes it for MS and
// ME; a rebuild serializes the live record; recovery moves each validated MS
// image into its segment whole.
#pragma once

#include <optional>
#include <vector>

#include "block/block_device.hpp"
#include "common/crc32c.hpp"
#include "common/types.hpp"
#include "raid/raid_level.hpp"

namespace srcache::src {

inline constexpr u64 kSegmentMetaMagic = 0x5352435F4D455441ull;  // "SRC_META"
inline constexpr u64 kSuperblockMagic = 0x5352435F53555052ull;   // "SRC_SUPR"
inline constexpr u64 kDeadSlot = ~0ull;  // slot holds no live block

struct SegmentMeta {
  // Seals number generations from 1, so 0 marks a never-written segment.
  u64 generation = 0;
  u32 sg = 0;
  u32 seg = 0;
  bool dirty = false;  // segment type
  bool redundant = false;  // carries parity or a mirror
  u8 parity_col = 0;  // device index of the parity column

  // One entry per data slot of the whole segment, in parallel vectors:
  // the primary-storage block (kDeadSlot if the slot was unused in a
  // partial segment, or is dead), the CRC-32C of the block's content tag,
  // and the owning tenant, so per-tenant accounting survives crash
  // recovery. On SSD an entry is {lba u64, crc u32, tenant u32}, 16 bytes;
  // deserialize clamps the tenant to u16.
  std::vector<u64> slot_lba;
  std::vector<u32> slot_crc;
  std::vector<u16> slot_tenant;

  [[nodiscard]] bool written() const { return generation != 0; }

  // Serializes the MS (tail = false) or ME (tail = true) image with a
  // trailing CRC-32C over everything before it.
  [[nodiscard]] blockdev::Payload serialize(bool tail) const;

  // Deserializes and verifies magic, checksum and that the payload holds
  // every entry its count claims; nullopt if invalid/corrupt.
  static std::optional<SegmentMeta> deserialize(const blockdev::Payload& p);
};

struct Superblock {
  u64 create_seq = 0;
  u32 num_ssds = 0;
  u64 erase_group_bytes = 0;
  u64 chunk_bytes = 0;
  u64 region_bytes_per_ssd = 0;
  // The stripe organisation the array was formatted under: recovery places
  // every slot by it, so an array is recovered only under the same one.
  raid::RaidLevel raid = raid::RaidLevel::kRaid0;
  bool parity_for_clean = false;  // PC: clean segments carry parity too

  [[nodiscard]] blockdev::Payload serialize() const;
  static std::optional<Superblock> deserialize(const blockdev::Payload& p);
};

}  // namespace srcache::src
