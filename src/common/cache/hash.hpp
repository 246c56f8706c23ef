#pragma once
// Content-key hashing for the cache layer.
//
// Cache keys are 64-bit digests of the *inputs* of a memoized
// computation (prompt text, technique configuration, corpus version,
// lint configuration, ...). Versioned state is folded into the key, so
// invalidation is free: bumping a knowledge-state or corpus version
// changes every key derived from it and the stale entries simply stop
// being reachable (and, in a bounded cache, age out under LRU eviction).
//
// The mixer is FNV-1a for byte content with a SplitMix64 finalisation
// step per field, which keeps single-field edits avalanching into the
// whole digest. This is content hashing for memoization, not
// cryptography — collisions are astronomically unlikely at the cache
// sizes involved but not adversarially hard.

#include <bit>
#include <cstdint>
#include <string_view>

#include "common/rng.hpp"

namespace qcgen::cache {

/// Incremental content hasher; mix fields in a fixed order and take
/// digest(). Field boundaries are part of the hash (every mix() runs a
/// SplitMix64 step), so ("ab","c") and ("a","bc") digest differently.
class KeyHasher {
 public:
  KeyHasher& mix(std::uint64_t value) noexcept {
    std::uint64_t state = state_ ^ value;
    state_ = splitmix64(state);
    return *this;
  }
  KeyHasher& mix(std::string_view s) noexcept {
    mix(fnv1a64(s));
    return mix(static_cast<std::uint64_t>(s.size()));
  }
  KeyHasher& mix(double value) noexcept {
    // Bit pattern, with -0.0 normalised so numerically equal configs
    // share a key. NaNs are not expected in key material.
    return mix(std::bit_cast<std::uint64_t>(value == 0.0 ? 0.0 : value));
  }
  KeyHasher& mix(bool value) noexcept {
    return mix(static_cast<std::uint64_t>(value ? 0x9e37u : 0x79b9u));
  }

  std::uint64_t digest() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;  ///< FNV-1a offset basis
};

}  // namespace qcgen::cache
