// FNV-1a 64-bit — the content digest behind the policy-bundle fingerprint,
// the telemetry segments' schema/replay fingerprints and the build
// fingerprint gauge. Words are folded little-endian byte by byte and
// doubles as their raw bit patterns, so -0.0 and 0.0 digest differently
// on purpose (bit identity is the contract every caller relies on).
// Header-only so leaf code can use it without a link dependency.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace verihvac::common {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

class Fnv1a {
 public:
  /// `seed` replaces the standard offset basis; digests persisted with a
  /// non-standard seed must keep passing it to stay reproducible.
  explicit constexpr Fnv1a(std::uint64_t seed = kFnv1aOffsetBasis) : state_(seed) {}

  constexpr Fnv1a& byte(unsigned char b) {
    state_ = (state_ ^ b) * kFnv1aPrime;
    return *this;
  }
  constexpr Fnv1a& u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) byte(static_cast<unsigned char>(v >> (8 * b)));
    return *this;
  }
  constexpr Fnv1a& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  /// Raw bytes, no length prefix.
  constexpr Fnv1a& bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }
  /// Length-prefixed string: adjacent fields cannot alias ("ab","c" vs "a","bc").
  constexpr Fnv1a& str(std::string_view s) { return u64(s.size()).bytes(s); }

  constexpr std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_;
};

}  // namespace verihvac::common
