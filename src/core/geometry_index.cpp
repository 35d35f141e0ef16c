#include "core/geometry_index.hpp"

#include <utility>

namespace mlvl {

BoxIndex::BoxIndex(std::span<const NodeBox> boxes) {
  constexpr std::uint64_t kMax = UINT32_MAX;
  auto holds_points = [&](const NodeBox& b) {
    return b.w > 0 && b.h > 0 && std::uint64_t{b.x} + b.w <= kMax &&
           std::uint64_t{b.y} + b.h <= kMax;
  };
  layers_.reserve(boxes.size());
  for (const NodeBox& b : boxes) {
    layers_.push_back(b.layer);
    if (!holds_points(b)) continue;
    starts_.push_back(b.y);
    starts_.push_back(b.y + b.h);
  }
  std::sort(starts_.begin(), starts_.end());
  starts_.erase(std::unique(starts_.begin(), starts_.end()), starts_.end());

  // One entry per (band, box crossing it), keyed (band, x).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(boxes.size());
  auto band_of = [&](std::uint32_t y) {
    return static_cast<std::uint64_t>(
        std::lower_bound(starts_.begin(), starts_.end(), y) - starts_.begin());
  };
  for (std::uint32_t i = 0; i < boxes.size(); ++i) {
    const NodeBox& b = boxes[i];
    if (!holds_points(b)) continue;
    for (std::uint64_t band = band_of(b.y), end = band_of(b.y + b.h);
         band < end; ++band)
      keyed.emplace_back(band << 32 | b.x, i);
  }
  std::sort(keyed.begin(), keyed.end());

  // Count each band's entries into offsets_[band + 1] (a band's first entry
  // starts its reach afresh); the prefix sums then give each band's start.
  offsets_.assign(starts_.size() + 1, 0);
  entries_.reserve(keyed.size());
  for (const auto& [key, i] : keyed) {
    const auto band = static_cast<std::size_t>(key >> 32);
    const NodeBox& b = boxes[i];
    const std::uint32_t hi = b.x + b.w - 1;
    const bool first = offsets_[band + 1]++ == 0;
    entries_.push_back(
        {b.x, hi, first ? hi : std::max(entries_.back().reach, hi), i});
  }
  for (std::size_t b = 0; b + 1 < offsets_.size(); ++b)
    offsets_[b + 1] += offsets_[b];
}

}  // namespace mlvl
