// Record-level lookup structures (DESIGN.md §7.14).
//
// Lint asks "which node box holds (x, y)?" many times per record, and the
// repair router finds its tiles by coordinate. Neither may scan every box
// per query (records x boxes) or expand records into grid points (memory
// proportional to area). Here:
//   * `FlatMap` is an open-addressing hash map from 64-bit keys to 32-bit
//     values: the router's tile directory;
//   * `BoxIndex` cuts node boxes into bands at every box's top and bottom
//     edge, each band a sorted x-interval list of the boxes crossing it, so
//     a box query costs O(log B) plus the boxes that overlap at the point.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/geometry.hpp"

namespace mlvl {

/// Open-addressing hash map from 64-bit keys to 32-bit values (linear
/// probing, at most half full).
class FlatMap {
 public:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;  ///< not a value

  explicit FlatMap(std::size_t expected = 0) {
    const std::size_t cap =
        std::bit_ceil(std::max<std::size_t>(16, 2 * expected));
    slots_.resize(cap);
    mask_ = cap - 1;
    shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(cap));
  }

  /// The value under `key`, storing `value` there first if absent.
  std::uint32_t try_emplace(std::uint64_t key, std::uint32_t value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.value == kEmpty) {
        s = {key, value};
        ++size_;
        return value;
      }
      if (s.key == key) return s.value;
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = kEmpty;
  };
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    --shift_;
    size_ = 0;
    for (const Slot& s : old)
      if (s.value != kEmpty) try_emplace(s.key, s.value);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint32_t shift_ = 64;
  std::size_t size_ = 0;
};

/// Node boxes answering "which box contains (x, y)". Boxes that contain no
/// point — zero extent, or an extent past 2^32 - 1, which `NodeBox::contains`
/// wraps — are left out, so answers match `contains` on any input.
class BoxIndex {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  explicit BoxIndex(std::span<const NodeBox> boxes);

  /// The lowest index i of a box containing (x, y) with pred(i) true, or
  /// kNone.
  template <typename Pred>
  [[nodiscard]] std::uint32_t find(std::uint32_t x, std::uint32_t y,
                                   Pred&& pred) const {
    const auto band = std::upper_bound(starts_.begin(), starts_.end(), y);
    if (band == starts_.begin()) return kNone;
    const auto b = static_cast<std::size_t>(band - starts_.begin()) - 1;
    const Entry* first = entries_.data() + offsets_[b];
    const Entry* it = std::upper_bound(
        first, entries_.data() + offsets_[b + 1], x,
        [](std::uint32_t v, const Entry& e) { return v < e.lo; });
    std::uint32_t best = kNone;
    while (it != first) {
      --it;
      ++probes_;
      if (it->reach < x) break;  // nothing earlier in the band reaches x
      if (it->hi >= x && it->box < best && pred(it->box)) best = it->box;
    }
    return best;
  }
  /// The lowest index of a box on `layer` containing (x, y), or kNone.
  [[nodiscard]] std::uint32_t at(std::uint32_t x, std::uint32_t y,
                                 std::uint32_t layer) const {
    return find(x, y, [&](std::uint32_t i) { return layers_[i] == layer; });
  }
  /// True iff some box, on any layer, contains (x, y).
  [[nodiscard]] bool covers(std::uint32_t x, std::uint32_t y) const {
    return find(x, y, [](std::uint32_t) { return true; }) != kNone;
  }

  /// Band entries built, and entries examined by queries so far.
  [[nodiscard]] std::uint64_t built() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t probes() const { return probes_; }

 private:
  struct Entry {
    std::uint32_t lo = 0, hi = 0, reach = 0;
    std::uint32_t box = 0;
  };
  std::vector<std::uint32_t> starts_;   ///< first row of each band
  std::vector<std::uint32_t> offsets_;  ///< band b's entries start here
  std::vector<Entry> entries_;          ///< per band, sorted by lo
  std::vector<std::uint16_t> layers_;   ///< per box index
  mutable std::uint64_t probes_ = 0;
};

}  // namespace mlvl
