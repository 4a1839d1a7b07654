// Slotted pages: the on-disk unit of the set store.
//
// Layout (kPageSize bytes):
//   [0..8)    checksum of bytes [8..kPageSize)   (Checksum64, seeded)
//   [8..12)   slot count (u32)
//   [12..16)  free-space offset (u32, grows upward from the header)
//   [16..)    slot directory: (offset u32, length u32) per slot
//   ...       record bytes, appended at the free-space offset
//
// Records are opaque byte strings; the set store chunks large encoded sets
// across several pages. Deleted slots keep their directory entry with
// length 0 (tombstone) — compaction is wholesale rewrite by the set store.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace xst {

inline constexpr size_t kPageSize = 8192;
inline constexpr uint32_t kInvalidPageId = 0xffffffff;

/// \brief An in-memory page image with slotted-record accessors.
class Page {
 public:
  /// Initializes an empty page (zero slots, checksum valid).
  Page();

  /// \brief Wraps a raw image; Corruption if the checksum does not match.
  ///
  /// `seed` perturbs the checksum domain; the pager passes the page id, so a
  /// structurally valid page written to (or read from) the wrong offset — a
  /// misdirected write — fails validation instead of decoding silently.
  /// Seed 0 is the default for standalone page images (and is what the
  /// page-0 superblock gets as its id). An image that fails the checksum
  /// but carries the older format's FNV-1a checksum is reported as such,
  /// so an older store is refused with its cause named.
  static Result<Page> FromBytes(std::string_view bytes, uint64_t seed = 0);

  /// \brief The raw image with a freshly computed checksum under `seed`.
  std::string ToBytes(uint64_t seed = 0) const;

  /// \brief Bytes still available for one more record (including its
  /// directory entry).
  size_t FreeSpace() const;

  /// \brief Appends a record; returns its slot index, or CapacityError.
  Result<uint32_t> AddRecord(std::string_view record);

  /// \brief The record in `slot`; NotFound for tombstones, OutOfRange
  /// otherwise.
  Result<std::string_view> GetRecord(uint32_t slot) const;

  /// \brief Tombstones a slot (idempotent).
  Status DeleteRecord(uint32_t slot);

  uint32_t slot_count() const { return slot_count_; }

 private:
  uint32_t slot_count_ = 0;
  uint32_t free_offset_ = 0;  // next record write position within data_
  struct Slot {
    uint32_t offset;
    uint32_t length;  // 0 == tombstone
  };
  std::vector<Slot> slots_;
  std::string data_;  // record heap (only the payload region)
};

}  // namespace xst
