// 64-bit FNV-1a, the hash behind every fingerprint the determinism gates
// compare: core::fingerprint over a mapping, the orchestrator's placement
// hash and run-fingerprint chain, and the router's parent-fabric placement
// hash.
#pragma once

#include <cstdint>
#include <string_view>

namespace hmn::util {

/// The FNV-1a offset basis: the hash of nothing.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ULL;

/// Folds one value into `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a_mix(std::uint64_t h,
                                                std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}

/// Folds every byte of `bytes` into `h`, in order.
[[nodiscard]] constexpr std::uint64_t fnv1a_bytes(std::uint64_t h,
                                                  std::string_view bytes) {
  for (const char c : bytes) h = fnv1a_mix(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace hmn::util
