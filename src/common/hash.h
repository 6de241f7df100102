// Content hashing.
//
// CoIC keys 3D models and panoramic frames by content hash (paper §2).
// We provide FNV-1a for cheap table hashing and a 128-bit mixed hash
// (two independently seeded FNV-1a streams) as the collision-resistant-
// enough content digest for cache keys. This is a simulator: we need
// stable, well-distributed digests, not cryptographic strength, and we
// document that distinction here rather than pretending otherwise.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace coic {

/// 64-bit FNV-1a over a byte span.
constexpr std::uint64_t Fnv1a64(std::span<const std::uint8_t> data,
                                std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t Fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A 128-bit content digest. Value-semantic, hashable, printable.
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr bool operator==(const Digest128&, const Digest128&) noexcept = default;
  friend constexpr auto operator<=>(const Digest128&, const Digest128&) noexcept = default;

  [[nodiscard]] bool IsZero() const noexcept { return hi == 0 && lo == 0; }

  /// 32 hex chars.
  [[nodiscard]] std::string ToHex() const;
};

/// Content digest of a byte buffer: two FNV passes with distinct seeds,
/// each finalized through a SplitMix-style avalanche.
Digest128 ContentDigest(std::span<const std::uint8_t> data) noexcept;

/// Hash functor so Digest128 can key unordered containers.
struct Digest128Hasher {
  std::size_t operator()(const Digest128& d) const noexcept {
    return static_cast<std::size_t>(d.hi ^ (d.lo * 0x9E3779B97F4A7C15ULL));
  }
};

}  // namespace coic
