#include "common/hash.h"

#include <cstdio>

namespace coic {
namespace {

constexpr std::uint64_t Avalanche(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Digest128 ContentDigest(std::span<const std::uint8_t> data) noexcept {
  // Two independent FNV-1a streams (the Fnv1a64 recurrence under two
  // seeds), run in one pass: the two multiply chains are independent,
  // so the CPU overlaps them instead of walking the buffer twice. Fold
  // in the length so that buffers that are prefixes of each other cannot
  // collide trivially.
  std::uint64_t a = 0xcbf29ce484222325ULL;
  std::uint64_t b = 0x84222325cbf29ce4ULL;
  for (const std::uint8_t byte : data) {
    a = (a ^ byte) * 0x100000001b3ULL;
    b = (b ^ byte) * 0x100000001b3ULL;
  }
  const std::uint64_t len = data.size();
  return Digest128{Avalanche(a ^ (len * 0xD1B54A32D192ED03ULL)),
                   Avalanche(b + 0x2545F4914F6CDD1DULL * (len + 1))};
}

std::string Digest128::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

}  // namespace coic
