// Record-level spatial index over layout geometry (DESIGN.md §7.14).
//
// Lint and the repair router ask point questions of a layout — "is grid
// point (x, y, z) claimed by a wire?", "which node box holds (x, y)?" —
// many times per record. Answering them by expanding records into grid
// points costs memory and set-up time proportional to wire length and box
// area; scanning every box per query costs records × boxes. This index
// answers both from the records themselves:
//   * horizontal runs per (layer, row) and vertical runs per (layer,
//     column), and via z-columns per (x, y), each line a sorted interval
//     list with a prefix-max reach, so overlapping intervals (faulty input)
//     still answer exactly;
//   * node boxes cut into bands at every box's top and bottom edge, each
//     band a sorted x-interval list of the boxes crossing it.
// Lines are found through a flat hash directory, so a point query costs
// O(1) + O(log k) for k intervals on the line; a box query O(log B) plus
// the boxes that overlap at the point. Building is O(r log r) over the
// records; claiming a run or column later (a routed path) costs O(log k)
// plus the length of the touched line.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/geometry.hpp"
#include "core/multilayer.hpp"

namespace mlvl {

/// Open-addressing hash map from 64-bit keys to 32-bit values (linear
/// probing, at most half full): the directory that finds a grid line.
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

  /// The value stored under `key`, or kEmpty.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.value == kEmpty || s.key == key) return s.value;
    }
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

/// Closed interval on a grid line with the prefix-max reach: the largest
/// `hi` of this and every earlier interval of the line (sorted by `lo`).
struct LineInterval {
  std::uint32_t lo = 0, hi = 0;
  std::uint32_t reach = 0;
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

/// Wire occupancy plus the node boxes of one layout. Occupancy follows the
/// via rule: a blocking via claims its whole z-column, a transparent one only
/// its two ends. Segments that are neither a horizontal nor a vertical run
/// (reversed or diagonal) are not indexed; the checker's frame scan reports
/// them.
class GeometryIndex {
 public:
  GeometryIndex(const LayoutGeometry& geom, ViaRule rule);

  /// True iff a run or via column claims grid point (x, y, layer).
  [[nodiscard]] bool occupied(std::uint32_t x, std::uint32_t y,
                              std::uint32_t layer) const;
  [[nodiscard]] const BoxIndex& boxes() const { return boxes_; }

  /// Claim the points of a run (a routed path's straight piece).
  void add_seg(const WireSeg& s);
  /// Claim the whole z-column [z1, z2] at (x, y), whatever the via rule.
  void add_column(std::uint32_t x, std::uint32_t y, std::uint32_t z1,
                  std::uint32_t z2);

  /// Intervals and box entries built or claimed so far.
  [[nodiscard]] std::uint64_t built() const {
    return built_.size() + inserted_ + boxes_.built();
  }

 private:
  static constexpr std::uint32_t kNoAdded = UINT32_MAX;
  /// A grid line: its built intervals, built_[begin, end), and the intervals
  /// claimed since, added_[added] (each part sorted by lo, prefix-maxed).
  struct Line {
    std::uint32_t begin = 0, end = 0;
    std::uint32_t added = kNoAdded;
  };
  [[nodiscard]] bool stab(const FlatMap& dir, std::uint64_t key,
                          std::uint32_t v) const;
  void insert(FlatMap& dir, std::uint64_t key, std::uint32_t lo,
              std::uint32_t hi);

  std::vector<LineInterval> built_;
  std::vector<std::vector<LineInterval>> added_;
  std::vector<Line> lines_;
  FlatMap runs_;     ///< (direction, layer, row or column) -> line index
  FlatMap columns_;  ///< (x, y) -> line index of its z-intervals
  BoxIndex boxes_;
  std::uint64_t inserted_ = 0;
};

}  // namespace mlvl
