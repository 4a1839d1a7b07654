// The benchmark's data generator and result checker, in plain C++.
//
// Nothing here includes libxst: every expected result is computed from the
// generator's formula in standard containers, so a fault anywhere in the
// program under test (parser, optimizer, VM, cursors, pager, WAL) shows up
// as a mismatch instead of being mirrored into the expectation.
//
// Data layout. A relation is a set of XST pairs <k, v> with every key below
// every value, so the structural order on pairs is the lexicographic order
// on (k, v) and an element range [<klo, vmin>, <khi, kRangeTop>] selects
// exactly the members whose key lies in [klo, khi]. Relation r sits on layer
// L = r % 2: keys come from L * kLayerStride + [0, keys) and values from
// (L + 1) * kLayerStride + [0, keys), so the values of an even relation are
// the keys of the next odd one (the two-hop image).
//
// Writer members carry values from kWriterBase up, above every base value
// and distinct per relation, key and slot, so a check can tell base and
// writer members apart. A read beside commits to the set it reads must hold
// every base member in its range and otherwise only writer members in its
// range that were acknowledged or in flight (BaseAndSubset).

#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Pair = std::pair<int64_t, int64_t>;

inline constexpr int64_t kLayerStride = 1'000'000;
inline constexpr int64_t kWriterBase = 900'000'000;
inline constexpr int64_t kWriterRelStride = 1'000'000;
inline constexpr int64_t kWriterSlots = 64;
/// Upper value in a range plan's hi bound: above every base and writer value.
inline constexpr int64_t kRangeTop = 999'999'999;

/// \brief splitmix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t state_;
};

/// \brief One generated relation: `keys` keys, each with `fanout` values.
struct RelationSpec {
  int id = 0;
  int64_t keys = 0;  ///< a power of two
  int fanout = 0;
  int64_t mult = 1;  ///< odd, so (i * mult) mod keys is a bijection
  int64_t offset = 0;

  int layer() const { return id % 2; }
  int64_t Key(int64_t key_index) const { return layer() * kLayerStride + key_index; }
  int64_t ValueBase() const { return (layer() + 1) * kLayerStride; }
  int64_t Value(int64_t key_index, int j) const {
    return ValueBase() + ((key_index * fanout + j) * mult + offset) % keys;
  }

  /// \brief All base members, sorted by (k, v).
  std::vector<Pair> Members() const {
    std::vector<Pair> out;
    out.reserve(static_cast<size_t>(keys) * fanout);
    for (int64_t ki = 0; ki < keys; ++ki) {
      for (int j = 0; j < fanout; ++j) out.emplace_back(Key(ki), Value(ki, j));
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

/// \brief `count` relations whose value placement depends on `seed`.
inline std::vector<RelationSpec> MakeRelations(uint64_t seed, int count, int64_t keys,
                                               int fanout) {
  Rng rng(seed ^ 0x5EEDull);
  std::vector<RelationSpec> rels;
  for (int r = 0; r < count; ++r) {
    RelationSpec spec;
    spec.id = r;
    spec.keys = keys;
    spec.fanout = fanout;
    spec.mult = 2 * rng.Below(keys / 2) + 1;
    spec.offset = rng.Below(keys);
    rels.push_back(spec);
  }
  return rels;
}

/// \brief The writer's member value of relation `rel` for key index
/// `key_index` in slot `slot`: a value no base member has.
inline int64_t WriterValue(int rel, int64_t key_index, int64_t slot) {
  return kWriterBase + rel * kWriterRelStride + key_index * kWriterSlots + slot;
}

/// \brief Members of `sorted` (sorted by (k, v)) with klo <= k <= khi.
inline std::vector<Pair> KeyRange(const std::vector<Pair>& sorted, int64_t klo, int64_t khi) {
  auto lo = std::lower_bound(sorted.begin(), sorted.end(), Pair{klo, INT64_MIN});
  auto hi = std::upper_bound(sorted.begin(), sorted.end(), Pair{khi, INT64_MAX});
  return std::vector<Pair>(lo, hi);
}

/// \brief {v : <k, v> in members, k in keys}, sorted and unique.
inline std::vector<int64_t> ImageOf(const std::vector<Pair>& sorted,
                                    const std::vector<int64_t>& keys) {
  std::set<int64_t> out;
  for (int64_t k : keys) {
    auto it = std::lower_bound(sorted.begin(), sorted.end(), Pair{k, INT64_MIN});
    for (; it != sorted.end() && it->first == k; ++it) out.insert(it->second);
  }
  return std::vector<int64_t>(out.begin(), out.end());
}

/// \brief Exact comparison of a decoded result with its expectation.
template <typename T>
bool SameMembers(const std::vector<T>& observed, const std::vector<T>& expected,
                 std::string* why) {
  if (observed == expected) return true;
  size_t common = 0;
  for (size_t i = 0, j = 0; i < observed.size() && j < expected.size();) {
    if (observed[i] < expected[j]) {
      ++i;
    } else if (expected[j] < observed[i]) {
      ++j;
    } else {
      ++common, ++i, ++j;
    }
  }
  *why = "got " + std::to_string(observed.size()) + " members, expected " +
         std::to_string(expected.size()) + ", " + std::to_string(common) + " in common";
  return false;
}

/// \brief Check of a read that ran beside commits: `observed` must hold
/// every member of `base` and otherwise only members of `allowed`, each
/// once. `base` and `allowed` are sorted; `observed` may be in any order.
template <typename T>
bool BaseAndSubset(std::vector<T> observed, const std::vector<T>& base,
                   const std::vector<T>& allowed, std::string* why) {
  std::sort(observed.begin(), observed.end());
  if (std::adjacent_find(observed.begin(), observed.end()) != observed.end()) {
    *why = "a member is returned twice";
    return false;
  }
  std::vector<T> extra;
  std::set_difference(observed.begin(), observed.end(), base.begin(), base.end(),
                      std::back_inserter(extra));
  const size_t base_found = observed.size() - extra.size();
  size_t stray = 0;
  for (const T& m : extra) {
    if (!std::binary_search(allowed.begin(), allowed.end(), m)) ++stray;
  }
  if (base_found == base.size() && stray == 0) return true;
  *why = "got " + std::to_string(observed.size()) + " members: " + std::to_string(base_found) +
         " of " + std::to_string(base.size()) + " base members in range, " +
         std::to_string(stray) + " members neither base nor an allowed writer member";
  return false;
}

}  // namespace e2e
