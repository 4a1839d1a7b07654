#include "src/store/page.h"

#include <cstring>

#include "src/common/hash.h"

namespace xst {

namespace {

constexpr size_t kHeaderSize = 16;  // checksum(8) + slot count(4) + free offset(4)
constexpr size_t kSlotEntrySize = 8;

void EncodeU32(uint32_t v, char* dst) { std::memcpy(dst, &v, 4); }

uint32_t ReadU32(std::string_view bytes, size_t offset) {
  uint32_t v;
  std::memcpy(&v, bytes.data() + offset, 4);
  return v;
}

uint64_t ReadU64(std::string_view bytes, size_t offset) {
  uint64_t v;
  std::memcpy(&v, bytes.data() + offset, 8);
  return v;
}

uint64_t BodyChecksum(std::string_view bytes, uint64_t seed) {
  return Checksum64(bytes.data() + 8, kPageSize - 8, seed);
}

// The checksum of the older on-disk format: byte-at-a-time FNV-1a with the
// seed folded into its offset basis. Kept only to name the cause when an
// older store is opened (see FromBytes); nothing writes it any more.
uint64_t OlderFormatChecksum(std::string_view bytes, uint64_t seed) {
  return HashBytes(bytes.data() + 8, kPageSize - 8,
                   14695981039346656037ULL ^ (seed * 0x9e3779b97f4a7c15ULL));
}

}  // namespace

Page::Page() = default;

Result<Page> Page::FromBytes(std::string_view bytes, uint64_t seed) {
  if (bytes.size() != kPageSize) {
    return Status::Corruption("page image has wrong size " + std::to_string(bytes.size()));
  }
  uint64_t stored_checksum = ReadU64(bytes, 0);
  if (stored_checksum != BodyChecksum(bytes, seed)) {
    if (stored_checksum == OlderFormatChecksum(bytes, seed)) {
      return Status::Corruption(
          "page checksum mismatch: the page carries the older FNV-1a checksum, "
          "so the file is in an older on-disk format; rebuild the store");
    }
    return Status::Corruption("page checksum mismatch");
  }
  Page page;
  page.slot_count_ = ReadU32(bytes, 8);
  page.free_offset_ = ReadU32(bytes, 12);
  size_t dir_end = kHeaderSize + static_cast<size_t>(page.slot_count_) * kSlotEntrySize;
  if (page.slot_count_ > (kPageSize - kHeaderSize) / kSlotEntrySize ||
      page.free_offset_ > kPageSize - dir_end) {
    return Status::Corruption("page header out of bounds");
  }
  page.slots_.reserve(page.slot_count_);
  for (uint32_t i = 0; i < page.slot_count_; ++i) {
    size_t entry = kHeaderSize + static_cast<size_t>(i) * kSlotEntrySize;
    Slot slot{ReadU32(bytes, entry), ReadU32(bytes, entry + 4)};
    if (slot.length > 0 &&
        (slot.offset > page.free_offset_ || slot.length > page.free_offset_ - slot.offset)) {
      return Status::Corruption("slot " + std::to_string(i) + " out of bounds");
    }
    page.slots_.push_back(slot);
  }
  page.data_.assign(bytes.substr(dir_end, page.free_offset_));
  return page;
}

std::string Page::ToBytes(uint64_t seed) const {
  std::string out(kPageSize, '\0');
  char* dst = out.data();
  EncodeU32(slot_count_, dst + 8);
  EncodeU32(free_offset_, dst + 12);
  size_t offset = kHeaderSize;
  for (const Slot& slot : slots_) {
    EncodeU32(slot.offset, dst + offset);
    EncodeU32(slot.length, dst + offset + 4);
    offset += kSlotEntrySize;
  }
  std::memcpy(dst + offset, data_.data(), data_.size());
  const uint64_t checksum = BodyChecksum(out, seed);
  std::memcpy(dst, &checksum, 8);
  return out;
}

size_t Page::FreeSpace() const {
  size_t used = kHeaderSize + slots_.size() * kSlotEntrySize + data_.size();
  size_t need_for_next = kSlotEntrySize;  // the next record's directory entry
  return used + need_for_next >= kPageSize ? 0 : kPageSize - used - need_for_next;
}

Result<uint32_t> Page::AddRecord(std::string_view record) {
  if (record.empty()) {
    return Status::Invalid("empty records are reserved for tombstones");
  }
  if (record.size() > FreeSpace()) {
    return Status::CapacityError("record of " + std::to_string(record.size()) +
                                 " bytes exceeds page free space " +
                                 std::to_string(FreeSpace()));
  }
  Slot slot{static_cast<uint32_t>(data_.size()), static_cast<uint32_t>(record.size())};
  data_.append(record);
  free_offset_ = static_cast<uint32_t>(data_.size());
  slots_.push_back(slot);
  slot_count_ = static_cast<uint32_t>(slots_.size());
  return slot_count_ - 1;
}

Result<std::string_view> Page::GetRecord(uint32_t slot) const {
  if (slot >= slots_.size()) {
    return Status::OutOfRange("slot " + std::to_string(slot) + " of " +
                              std::to_string(slots_.size()));
  }
  if (slots_[slot].length == 0) {
    return Status::NotFound("slot " + std::to_string(slot) + " is deleted");
  }
  return std::string_view(data_).substr(slots_[slot].offset, slots_[slot].length);
}

Status Page::DeleteRecord(uint32_t slot) {
  if (slot >= slots_.size()) {
    return Status::OutOfRange("slot " + std::to_string(slot) + " of " +
                              std::to_string(slots_.size()));
  }
  slots_[slot].length = 0;
  return Status::OK();
}

}  // namespace xst
