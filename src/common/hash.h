// Hash combinators used by the interner, plus the storage layer's checksum.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace xst {

/// \brief 64-bit FNV-1a over a byte range: the interner's string hash. One
/// multiply per byte, so the page and log checksums use Checksum64 instead.
inline uint64_t HashBytes(const void* data, size_t len, uint64_t seed = 14695981039346656037ULL) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t HashString(std::string_view s) { return HashBytes(s.data(), s.size()); }

/// \brief Mixes a new 64-bit value into an accumulated hash (boost-style).
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  // 64-bit variant of boost::hash_combine with a splitmix64 finisher on v.
  v += 0x9e3779b97f4a7c15ULL;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  v = v ^ (v >> 31);
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

inline uint64_t HashInt(int64_t v) {
  return HashCombine(0x51ed27f1a1c3a3b7ULL, static_cast<uint64_t>(v));
}

namespace internal {

inline uint64_t RotL64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t LoadWord64(const unsigned char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

inline constexpr uint64_t kChecksumM1 = 0x9e3779b97f4a7c15ULL;  // 2^64/φ
inline constexpr uint64_t kChecksumM2 = 0xbf58476d1ce4e5b9ULL;  // splitmix64
inline constexpr uint64_t kChecksumM3 = 0x94d049bb133111ebULL;  // splitmix64

// One lane step. Bijective in `acc` for a fixed word and in `word` for a
// fixed acc: add, rotate, and multiplication by an odd constant all are.
inline uint64_t ChecksumRound(uint64_t acc, uint64_t word) {
  return RotL64(acc + word * kChecksumM2, 31) * kChecksumM1;
}

}  // namespace internal

/// \brief 64-bit checksum of a byte range, eight bytes at a time: the page
/// and write-ahead-log checksum (DESIGN.md §8.2).
///
/// Four independent multiply–rotate lanes consume 32-byte stripes (the
/// lanes have no data dependence on each other, so the multiplies overlap),
/// the lanes fold into one accumulator, leftover words and bytes fold in
/// one at a time, and a xorshift-multiply finalizer mixes the result.
/// Every step is a bijection of the state for fixed input, so two inputs of
/// equal length that differ only within one 8-byte word — any single-bit
/// flip included — always get different checksums. `seed` picks the
/// checksum domain (the page id, the log epoch and position).
inline uint64_t Checksum64(const void* data, size_t len, uint64_t seed) {
  using internal::ChecksumRound;
  using internal::kChecksumM1;
  using internal::kChecksumM2;
  using internal::kChecksumM3;
  using internal::LoadWord64;
  using internal::RotL64;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t v0 = seed + kChecksumM1 + kChecksumM2;
    uint64_t v1 = seed + kChecksumM2;
    uint64_t v2 = seed;
    uint64_t v3 = seed - kChecksumM1;
    do {
      v0 = ChecksumRound(v0, LoadWord64(p));
      v1 = ChecksumRound(v1, LoadWord64(p + 8));
      v2 = ChecksumRound(v2, LoadWord64(p + 16));
      v3 = ChecksumRound(v3, LoadWord64(p + 24));
      p += 32;
    } while (end - p >= 32);
    h = RotL64(v0, 1) + RotL64(v1, 7) + RotL64(v2, 12) + RotL64(v3, 18);
  } else {
    h = seed + kChecksumM3;
  }
  h += static_cast<uint64_t>(len);
  for (; end - p >= 8; p += 8) {
    h = RotL64(h ^ ChecksumRound(0, LoadWord64(p)), 27) * kChecksumM1 + kChecksumM3;
  }
  if (p != end) {
    uint64_t w = 0;  // zero-padded: a byte change still changes the word
    std::memcpy(&w, p, static_cast<size_t>(end - p));
    h = RotL64(h ^ (w * kChecksumM2), 23) * kChecksumM1 + kChecksumM3;
  }
  h ^= h >> 33;
  h *= kChecksumM2;
  h ^= h >> 29;
  h *= kChecksumM3;
  h ^= h >> 32;
  return h;
}

}  // namespace xst
