//===- support/Hash.h - Incremental FNV-1a hashing --------------*- C++ -*-===//
///
/// \file
/// A tiny incremental FNV-1a (64-bit) hasher shared by the artifact layers
/// that need a stable, portable content fingerprint: the plan cache key
/// (plan::cacheKey), the daemon's frame checksums and raw-index files, and
/// the analysis layer's fingerprints.
///
/// FNV-1a's per-byte step `h = (h ^ b) * prime` is injective in `b` for a
/// fixed incoming `h` (the prime is odd, so the multiply is invertible mod
/// 2^64), and every later step is an injective function of `h`. A
/// single-byte change therefore always changes the final value — which is
/// what makes it usable as a corruption check for the every-byte-corruption
/// hostile-input corpus, not just as a hash.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_SUPPORT_HASH_H
#define PYPM_SUPPORT_HASH_H

#include <cstdint>
#include <cstring>
#include <string_view>

namespace pypm {

class Fnv1aHash {
public:
  static constexpr uint64_t kOffsetBasis = 1469598103934665603ull;
  static constexpr uint64_t kPrime = 1099511628211ull;

  void byte(uint8_t B) { H = (H ^ B) * kPrime; }

  void bytes(const void *Data, size_t Len) {
    const auto *P = static_cast<const uint8_t *>(Data);
    for (size_t I = 0; I < Len; ++I)
      byte(P[I]);
  }

  /// Little-endian, width-explicit integer mixing: the value hashes the
  /// same on every host, independent of native endianness or word size.
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }

  /// Length-prefixed, so consecutive strings cannot alias ("ab","c" vs
  /// "a","bc").
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    bytes(S.data(), S.size());
  }

  uint64_t value() const { return H; }

private:
  uint64_t H = kOffsetBasis;
};

/// boost::hash_combine-style 64-bit mixing. For in-process hash tables
/// (term hash-consing) where speed matters and the value never crosses a
/// process boundary; persistent fingerprints use Fnv1aHash above instead.
inline uint64_t hashCombine(uint64_t Seed, uint64_t V) {
  Seed ^= V + 0x9e3779b97f4a7c15ULL + (Seed << 12) + (Seed >> 4);
  return Seed;
}

} // namespace pypm

#endif // PYPM_SUPPORT_HASH_H
