// The set-store catalog: name → blob location.
//
// Dogfooding the thesis that every data representation has a set identity,
// the catalog itself round-trips through an extended set:
//
//   { ⟨"name", first_page, page_span, byte_length⟩, … }
//
// — a classical set of 4-tuples — and is persisted with the same codec and
// pages as user data.
//
// Ordered-index entries (PR8) extend the tuple with a kind discriminant:
// ⟨"name", root_page, height, member_count, kind⟩. Blob entries keep the
// 4-tuple spelling, so catalogs written before indexes existed load
// unchanged, and the three location fields are reinterpreted per kind
// (first_page=root, page_span=height, byte_length=cardinality).
//
// Each entry keeps its tuple, interned once when the entry is put (or
// loaded), and the tuples are kept in the set's canonical order, so
// persisting the catalog after a one-entry change builds one tuple and
// re-sorts nothing (Encode). Both lists are flat vectors: a commit copies
// the catalog to stage its change, and copying a vector is one allocation.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/xset.h"

namespace xst {

struct CatalogEntry {
  uint32_t first_page = kInvalidFirstPage;  // index kind: the tree's root page
  uint32_t page_span = 0;                   // index kind: the tree's height
  uint64_t byte_length = 0;                 // index kind: the member count
  uint8_t kind = kKindBlob;

  static constexpr uint32_t kInvalidFirstPage = 0xffffffff;
  static constexpr uint8_t kKindBlob = 0;
  static constexpr uint8_t kKindIndex = 1;
  bool operator==(const CatalogEntry&) const = default;
};

class Catalog {
 public:
  /// \brief Registers or replaces a name.
  void Put(const std::string& name, const CatalogEntry& entry);

  /// \brief Looks a name up; NotFound if absent.
  Result<CatalogEntry> Get(const std::string& name) const;

  /// \brief Removes a name; NotFound if absent.
  Status Remove(const std::string& name);

  bool Contains(const std::string& name) const { return Find(name) != nullptr; }

  /// \brief All names in lexicographic order.
  std::vector<std::string> Names() const;

  size_t size() const { return entries_.size(); }

  /// \brief The catalog as an extended set (see file comment).
  XSet ToXSet() const;

  /// \brief The codec encoding of ToXSet(), built from the cached tuples
  /// without interning the catalog set itself.
  std::string Encode() const;

  /// \brief Rebuilds a catalog from its set form; TypeError on malformed
  /// entries.
  static Result<Catalog> FromXSet(const XSet& repr);

 private:
  struct Slot {
    std::string name;
    CatalogEntry entry;
    XSet tuple;  // ⟨name, first_page, page_span, byte_length[, kind]⟩
  };

  /// Index of the first entry whose name is not less than `name`.
  size_t NameIndex(const std::string& name) const;
  const Slot* Find(const std::string& name) const;
  /// Puts `tuple` for `name`, replacing the name's old tuple if any.
  void PutTuple(const std::string& name, const CatalogEntry& entry, XSet tuple);
  /// Removes `tuple` from members_.
  void DropTuple(const XSet& tuple);

  std::vector<Slot> entries_;        // ascending by name
  std::vector<Membership> members_;  // {tuple ^ ∅}, in canonical order
};

}  // namespace xst
