#include "src/store/catalog.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/order.h"
#include "src/ops/tuple.h"
#include "src/store/codec.h"

namespace xst {

namespace {

XSet EntryTuple(const std::string& name, const CatalogEntry& entry) {
  std::vector<XSet> parts{XSet::String(name), XSet::Int(entry.first_page),
                          XSet::Int(entry.page_span),
                          XSet::Int(static_cast<int64_t>(entry.byte_length))};
  // Blob entries keep the historical 4-tuple spelling byte-for-byte; only
  // non-blob kinds carry the discriminant.
  if (entry.kind != CatalogEntry::kKindBlob) parts.push_back(XSet::Int(entry.kind));
  return XSet::Tuple(parts);
}

bool MemberLess(const Membership& a, const Membership& b) {
  return CompareMembership(a, b) < 0;
}

}  // namespace

size_t Catalog::NameIndex(const std::string& name) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), name,
                             [](const Slot& slot, const std::string& n) {
                               return slot.name < n;
                             });
  return static_cast<size_t>(it - entries_.begin());
}

const Catalog::Slot* Catalog::Find(const std::string& name) const {
  const size_t i = NameIndex(name);
  return i < entries_.size() && entries_[i].name == name ? &entries_[i] : nullptr;
}

void Catalog::DropTuple(const XSet& tuple) {
  const Membership old{tuple, XSet::Empty()};
  auto at = std::lower_bound(members_.begin(), members_.end(), old, MemberLess);
  XST_DCHECK(at != members_.end() && *at == old);
  members_.erase(at);
}

void Catalog::PutTuple(const std::string& name, const CatalogEntry& entry,
                       XSet tuple) {
  const size_t i = NameIndex(name);
  if (i < entries_.size() && entries_[i].name == name) {
    DropTuple(entries_[i].tuple);
    entries_[i].entry = entry;
    entries_[i].tuple = tuple;
  } else {
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                    Slot{name, entry, tuple});
  }
  const Membership added{std::move(tuple), XSet::Empty()};
  members_.insert(std::lower_bound(members_.begin(), members_.end(), added, MemberLess),
                  added);
}

void Catalog::Put(const std::string& name, const CatalogEntry& entry) {
  const Slot* slot = Find(name);
  if (slot != nullptr && slot->entry == entry) return;
  PutTuple(name, entry, EntryTuple(name, entry));
}

Result<CatalogEntry> Catalog::Get(const std::string& name) const {
  const Slot* slot = Find(name);
  if (slot == nullptr) {
    return Status::NotFound("catalog: no set named '" + name + "'");
  }
  return slot->entry;
}

Status Catalog::Remove(const std::string& name) {
  const Slot* slot = Find(name);
  if (slot == nullptr) {
    return Status::NotFound("catalog: no set named '" + name + "'");
  }
  DropTuple(slot->tuple);
  entries_.erase(entries_.begin() + (slot - entries_.data()));
  return Status::OK();
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Slot& slot : entries_) names.push_back(slot.name);
  return names;
}

XSet Catalog::ToXSet() const {
  XST_DCHECK(IsCanonicalMemberList(members_));
  return XSet::FromSortedMembers(members_);
}

std::string Catalog::Encode() const {
  std::string out;
  EncodeMemberList(members_, &out);
  return out;
}

Result<Catalog> Catalog::FromXSet(const XSet& repr) {
  Catalog catalog;
  for (const Membership& m : repr.members()) {
    std::vector<XSet> parts;
    if (!m.scope.empty() || !TupleElements(m.element, &parts) ||
        (parts.size() != 4 && parts.size() != 5) || !parts[0].is_string() ||
        !parts[1].is_int() || !parts[2].is_int() || !parts[3].is_int() ||
        (parts.size() == 5 && !parts[4].is_int())) {
      return Status::TypeError("catalog: malformed entry " + m.element.ToString());
    }
    // Range-check before the narrowing casts: a negative or oversized field
    // must surface as Corruption here, not wrap into a bogus page id that
    // fails much later (or, worse, aliases a live page).
    const int64_t first_page = parts[1].int_value();
    const int64_t page_span = parts[2].int_value();
    const int64_t byte_length = parts[3].int_value();
    constexpr int64_t kMaxU32 = 0xffffffff;
    if (first_page < 0 || first_page > kMaxU32 || page_span < 0 ||
        page_span > kMaxU32 || byte_length < 0) {
      return Status::Corruption(
          "catalog: entry '" + parts[0].str_value() + "' field out of range"
          " (first_page=" + std::to_string(first_page) +
          ", page_span=" + std::to_string(page_span) +
          ", byte_length=" + std::to_string(byte_length) + ")");
    }
    const int64_t kind = parts.size() == 5 ? parts[4].int_value()
                                           : CatalogEntry::kKindBlob;
    if (kind != CatalogEntry::kKindBlob && kind != CatalogEntry::kKindIndex) {
      return Status::Corruption("catalog: entry '" + parts[0].str_value() +
                                "' has unknown kind " + std::to_string(kind));
    }
    CatalogEntry entry;
    entry.first_page = static_cast<uint32_t>(first_page);
    entry.page_span = static_cast<uint32_t>(page_span);
    entry.byte_length = static_cast<uint64_t>(byte_length);
    entry.kind = static_cast<uint8_t>(kind);
    // The stored tuple is the entry's tuple already (a blob entry written
    // with a kind of 0 would not be, so that one is rebuilt).
    XSet tuple = parts.size() == 4 || kind != CatalogEntry::kKindBlob
                     ? m.element
                     : EntryTuple(parts[0].str_value(), entry);
    catalog.PutTuple(parts[0].str_value(), entry, tuple);
  }
  return catalog;
}

}  // namespace xst
