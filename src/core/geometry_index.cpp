#include "core/geometry_index.hpp"

namespace mlvl {

// ---- BoxIndex ---------------------------------------------------------------

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

// ---- GeometryIndex ----------------------------------------------------------

namespace {

std::uint64_t run_key(bool vertical, std::uint32_t layer, std::uint32_t fixed) {
  return std::uint64_t{vertical} << 48 | std::uint64_t{layer & 0xFFFFu} << 32 |
         fixed;
}
std::uint64_t column_key(std::uint32_t x, std::uint32_t y) {
  return std::uint64_t{x} << 32 | y;
}

}  // namespace

GeometryIndex::GeometryIndex(const LayoutGeometry& geom, ViaRule rule)
    : boxes_(geom.boxes) {
  // (line key, lo << 32 | hi) per interval.
  using Rec = std::pair<std::uint64_t, std::uint64_t>;
  auto span = [](std::uint32_t lo, std::uint32_t hi) {
    return std::uint64_t{lo} << 32 | hi;
  };
  std::vector<Rec> runs, columns;
  runs.reserve(geom.segs.size());
  columns.reserve(2 * geom.vias.size());
  for (const WireSeg& s : geom.segs) {
    if (s.y1 == s.y2 && s.x1 <= s.x2)
      runs.emplace_back(run_key(false, s.layer, s.y1), span(s.x1, s.x2));
    else if (s.x1 == s.x2 && s.y1 <= s.y2)
      runs.emplace_back(run_key(true, s.layer, s.x1), span(s.y1, s.y2));
  }
  for (const Via& v : geom.vias) {
    const std::uint64_t key = column_key(v.x, v.y);
    if (rule == ViaRule::kTransparent) {
      columns.emplace_back(key, span(v.z1, v.z1));
      columns.emplace_back(key, span(v.z2, v.z2));
    } else if (v.z1 <= v.z2) {
      columns.emplace_back(key, span(v.z1, v.z2));
    }
  }

  // Group by line through the directory, place each line's intervals
  // contiguously (a counting sort), then sort and prefix-max each line:
  // O(r) plus the per-line sorts.
  auto build = [&](const std::vector<Rec>& recs, FlatMap& dir) {
    dir = FlatMap(recs.size());
    const std::size_t first = lines_.size();
    std::vector<std::uint32_t> line_of(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const auto next = static_cast<std::uint32_t>(lines_.size());
      const std::uint32_t id = dir.try_emplace(recs[i].first, next);
      if (id == next) lines_.push_back({});
      line_of[i] = id;
      ++lines_[id].end;
    }
    auto at = static_cast<std::uint32_t>(built_.size());
    for (std::size_t l = first; l < lines_.size(); ++l) {
      Line& line = lines_[l];
      line.begin = at;
      at += line.end;
      line.end = line.begin;  // fill cursor
    }
    built_.resize(at);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const auto lo = static_cast<std::uint32_t>(recs[i].second >> 32);
      const auto hi = static_cast<std::uint32_t>(recs[i].second);
      built_[lines_[line_of[i]].end++] = {lo, hi, hi};
    }
    for (std::size_t l = first; l < lines_.size(); ++l) {
      const auto ivs = built_.begin() + lines_[l].begin;
      const auto end = built_.begin() + lines_[l].end;
      std::sort(ivs, end, [](const LineInterval& a, const LineInterval& b) {
        return a.lo < b.lo;
      });
      for (auto it = ivs + 1; it < end; ++it)
        it->reach = std::max(it[-1].reach, it->hi);
    }
  };
  built_.reserve(runs.size() + columns.size());
  build(runs, runs_);
  build(columns, columns_);
}

namespace {

/// The first interval of `ivs` (sorted by lo) that starts after v.
template <typename It>
It first_after(It begin, It end, std::uint32_t v) {
  return std::upper_bound(
      begin, end, v,
      [](std::uint32_t p, const LineInterval& iv) { return p < iv.lo; });
}

/// True iff an interval of the sorted, prefix-maxed `ivs` contains v.
bool stab_sorted(std::span<const LineInterval> ivs, std::uint32_t v) {
  const auto it = first_after(ivs.begin(), ivs.end(), v);
  return it != ivs.begin() && std::prev(it)->reach >= v;
}

}  // namespace

bool GeometryIndex::stab(const FlatMap& dir, std::uint64_t key,
                         std::uint32_t v) const {
  const std::uint32_t id = dir.find(key);
  if (id == FlatMap::kEmpty) return false;
  const Line& line = lines_[id];
  return stab_sorted({built_.data() + line.begin, built_.data() + line.end},
                     v) ||
         (line.added != kNoAdded && stab_sorted(added_[line.added], v));
}

bool GeometryIndex::occupied(std::uint32_t x, std::uint32_t y,
                             std::uint32_t layer) const {
  return stab(runs_, run_key(false, layer, y), x) ||
         stab(runs_, run_key(true, layer, x), y) ||
         stab(columns_, column_key(x, y), layer);
}

void GeometryIndex::insert(FlatMap& dir, std::uint64_t key, std::uint32_t lo,
                           std::uint32_t hi) {
  ++inserted_;
  const auto next = static_cast<std::uint32_t>(lines_.size());
  const std::uint32_t id = dir.try_emplace(key, next);
  if (id == next) lines_.push_back({});
  Line& line = lines_[id];
  if (line.added == kNoAdded) {
    line.added = static_cast<std::uint32_t>(added_.size());
    added_.emplace_back();
  }
  std::vector<LineInterval>& ivs = added_[line.added];
  auto it = ivs.insert(first_after(ivs.begin(), ivs.end(), lo), {lo, hi, hi});
  if (it != ivs.begin()) it->reach = std::max(std::prev(it)->reach, hi);
  // Later reaches grow until one already covers the new interval.
  for (auto prev = it++; it != ivs.end() && it->reach < prev->reach;
       prev = it++)
    it->reach = prev->reach;
}

void GeometryIndex::add_seg(const WireSeg& s) {
  if (s.y1 == s.y2 && s.x1 <= s.x2)
    insert(runs_, run_key(false, s.layer, s.y1), s.x1, s.x2);
  else if (s.x1 == s.x2 && s.y1 <= s.y2)
    insert(runs_, run_key(true, s.layer, s.x1), s.y1, s.y2);
}

void GeometryIndex::add_column(std::uint32_t x, std::uint32_t y,
                               std::uint32_t z1, std::uint32_t z2) {
  insert(columns_, column_key(x, y), z1, z2);
}

}  // namespace mlvl
