// Packed 3-D grid-point keys shared by the checker and the repair router.
// 20 bits per x/y coordinate (the checker rejects larger layouts up
// front), layer in the high bits so sorting groups by layer.
#pragma once

#include <cstdint>

namespace mlvl::grid {

inline constexpr std::uint32_t kCoordBits = 20;
inline constexpr std::uint32_t kCoordMax = (1u << kCoordBits) - 1;

[[nodiscard]] constexpr std::uint64_t key3(std::uint32_t x, std::uint32_t y,
                                           std::uint32_t z) {
  return (static_cast<std::uint64_t>(z) << (2 * kCoordBits)) |
         (static_cast<std::uint64_t>(y) << kCoordBits) | x;
}

[[nodiscard]] constexpr std::uint32_t key_x(std::uint64_t k) {
  return static_cast<std::uint32_t>(k) & kCoordMax;
}
[[nodiscard]] constexpr std::uint32_t key_y(std::uint64_t k) {
  return static_cast<std::uint32_t>(k >> kCoordBits) & kCoordMax;
}
[[nodiscard]] constexpr std::uint32_t key_z(std::uint64_t k) {
  return static_cast<std::uint32_t>(k >> (2 * kCoordBits));
}

}  // namespace mlvl::grid
