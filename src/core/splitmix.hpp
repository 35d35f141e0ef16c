// SplitMix64, the seeded generator behind the library's randomized choices
// (fault sites, random extra links, routing sources, bisection samples): a
// seed names the same choices on every platform.
#pragma once

#include <cstdint>

namespace mlvl {

/// Advances `state` and returns the next value of its sequence.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace mlvl
