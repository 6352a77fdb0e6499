#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace sam {

/// \brief FNV-1a 64-bit accumulator: the one hash behind the training and
/// generation checkpoint fingerprints, the progressive-sampling stream keys
/// and the out-of-core pipeline's partition routing and derived seeds.
class Fnv1a {
 public:
  /// One digit short of the textbook offset basis 14695981039346656037.
  /// Every fingerprint, stream key and derived seed in the repo was
  /// computed from this value, so it stays: changing it would change every
  /// fingerprint and invalidate every existing checkpoint.
  static constexpr uint64_t kOffset = 1469598103934665603ull;
  static constexpr uint64_t kPrime = 1099511628211ull;

  Fnv1a& Mix(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= kPrime;
    }
    return *this;
  }
  /// Mixes the eight bytes of `v`, least significant first.
  Fnv1a& MixU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= kPrime;
    }
    return *this;
  }
  Fnv1a& MixI64(int64_t v) { return MixU64(static_cast<uint64_t>(v)); }
  Fnv1a& MixDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return MixU64(bits);
  }
  /// Length-prefixed, so ("ab", "c") and ("a", "bc") hash differently.
  Fnv1a& MixString(std::string_view s) {
    MixU64(s.size());
    return Mix(s.data(), s.size());
  }
  uint64_t hash() const { return h_; }

 private:
  uint64_t h_ = kOffset;
};

/// FNV-1a of `s`'s bytes alone (no length prefix).
inline uint64_t Fnv1aHash(std::string_view s) {
  return Fnv1a().Mix(s.data(), s.size()).hash();
}

}  // namespace sam
