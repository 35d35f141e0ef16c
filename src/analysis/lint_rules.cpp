// The ten lint rule bodies. Rules only compute locations and hand raw
// findings to the emitter; policy (enable, baseline) lives in the
// driver. Conventions shared by all rules:
//  * a "run" is a non-degenerate segment (degenerate stubs are the business
//    of zero-length-seg alone, so the other rules skip them);
//  * the documented odd-L construction is not a finding: with an odd layer
//    count the unpaired vertical group rides the top layer and its junction
//    vias span two boundaries (core/multilayer.cpp), which layer-parity and
//    turn-via-group accept and via-span-wide only reports under the strict
//    (blocking) via rule;
//  * rules are robust against unchecked geometry: out-of-range coordinates
//    are clamped or skipped, never trusted (the linter may run before — or
//    instead of — the checker).
#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/lint.hpp"
#include "core/gridkey.hpp"

namespace mlvl::analysis::detail {
namespace {

bool is_run(const WireSeg& s) { return s.x1 != s.x2 || s.y1 != s.y2; }

Diagnostic at(std::uint32_t x, std::uint32_t y, std::uint16_t layer) {
  Diagnostic d;
  d.has_point = true;
  d.x = x;
  d.y = y;
  d.layer = layer;
  return d;
}

// --- discipline conformance -------------------------------------------------

// Horizontal runs on odd layers, vertical runs on even layers (Sec. 2.4
// track partitioning: group g pairs H on 2g+1 with V on 2g+2). Exception:
// with odd L the unpaired vertical group legally rides the top layer.
void layer_parity(const Graph&, const LayoutGeometry& geom,
                  const LintConfig&, const LintEmit& emit) {
  for (const WireSeg& s : geom.segs) {
    if (!is_run(s)) continue;
    const bool odd_layer = (s.layer % 2) == 1;
    bool bad;
    if (s.horizontal()) {
      bad = !odd_layer;
    } else {
      const bool odd_top_exception =
          (geom.num_layers % 2) == 1 && s.layer == geom.num_layers;
      bad = odd_layer && !odd_top_exception;
    }
    if (!bad) continue;
    Diagnostic d = at(s.x1, s.y1, s.layer);
    d.edge = s.edge;
    d.detail = s.horizontal() ? "horizontal run on even layer"
                              : "vertical run on odd layer";
    emit(std::move(d));
  }
}

// A turn via (one that does not rise from an active layer-1 terminal) must
// pair the two layers of a single group: 2g+1 <-> 2g+2. The odd-L junction
// via (top layer <-> layer L-2) is the documented exception.
void turn_via_group(const Graph&, const LayoutGeometry& geom,
                    const LintConfig&, const LintEmit& emit) {
  for (const Via& v : geom.vias) {
    if (v.z1 <= 1 || v.z2 < v.z1) continue;  // terminal riser or invalid span
    const bool same_group = (v.z1 % 2) == 1 && v.z2 == v.z1 + 1;
    const bool odd_top_junction = (geom.num_layers % 2) == 1 &&
                                  v.z2 == geom.num_layers &&
                                  v.z1 + 2 == v.z2;
    if (same_group || odd_top_junction) continue;
    Diagnostic d = at(v.x, v.y, v.z1);
    d.edge = v.edge;
    d.detail = "via spans layers " + std::to_string(v.z1) + ".." +
               std::to_string(v.z2);
    emit(std::move(d));
  }
}

// Under the strict grid model every turn via spans exactly one layer
// boundary; a wider one silently depends on stacked-via technology. Quiet
// under ViaRule::kTransparent, where that technology is the declared target.
void via_span_wide(const Graph&, const LayoutGeometry& geom,
                   const LintConfig& cfg, const LintEmit& emit) {
  if (cfg.via_rule == ViaRule::kTransparent) return;
  for (const Via& v : geom.vias) {
    if (v.z1 <= 1 || v.z2 < v.z1 || v.z2 - v.z1 <= 1) continue;
    Diagnostic d = at(v.x, v.y, v.z1);
    d.edge = v.edge;
    d.detail = "spans " + std::to_string(v.z2 - v.z1) + " boundaries";
    emit(std::move(d));
  }
}

// Thompson model (L = 2): two different edges bending at one (x, y) is a
// knock-knee. The checker cannot see it — each edge owns a different layer
// at that point — but physically both wires turn on the same grid vertex.
// Run endpoints inside node boxes are terminals, not bends.
void thompson_knock_knee(const LayoutGeometry& geom, LintShared& shared,
                         const LintEmit& emit) {
  if (geom.num_layers != 2) return;
  const BoxIndex& boxes = shared.boxes();
  struct Bend {
    std::uint64_t key;  ///< packed (x, y)
    EdgeId edge;
    std::uint16_t layer;
  };
  std::vector<Bend> bends;
  for (const WireSeg& s : geom.segs) {
    if (!is_run(s)) continue;
    for (auto [x, y] : {std::pair{s.x1, s.y1}, std::pair{s.x2, s.y2}}) {
      if (boxes.covers(x, y)) continue;
      bends.push_back({grid::key3(x, y, 0), s.edge, s.layer});
    }
  }
  std::sort(bends.begin(), bends.end(), [](const Bend& a, const Bend& b) {
    return a.key != b.key ? a.key < b.key : a.edge < b.edge;
  });
  for (std::size_t i = 1; i < bends.size(); ++i) {
    if (bends[i].key != bends[i - 1].key ||
        bends[i].edge == bends[i - 1].edge)
      continue;
    Diagnostic d = at(grid::key_x(bends[i].key), grid::key_y(bends[i].key),
                      bends[i].layer);
    d.edge = bends[i - 1].edge;
    d.edge2 = bends[i].edge;
    emit(std::move(d));
    // One report per grid point: skip the rest of this key group.
    while (i + 1 < bends.size() && bends[i + 1].key == bends[i].key) ++i;
  }
}

// A riser that drops into the *interior* of a node box missed the box's
// perimeter terminals: wires enter boxes at the boundary track positions the
// realize() terminal allocator hands out, never through the middle.
// The first box in record order that qualifies is reported.
void terminal_riser_offtrack(const LayoutGeometry& geom, LintShared& shared,
                             const LintEmit& emit) {
  const BoxIndex& boxes = shared.boxes();
  for (const Via& v : geom.vias) {
    if (v.z2 < v.z1) continue;
    const std::uint32_t hit = boxes.find(v.x, v.y, [&](std::uint32_t i) {
      const NodeBox& b = geom.boxes[i];
      if (b.w <= 2 || b.h <= 2) return false;  // no interior to land in
      if (b.layer < v.z1 || b.layer > v.z2) return false;
      return v.x > b.x && v.x + 1 < b.x + b.w && v.y > b.y &&
             v.y + 1 < b.y + b.h;
    });
    if (hit == BoxIndex::kNone) continue;
    const NodeBox& b = geom.boxes[hit];
    Diagnostic d = at(v.x, v.y, b.layer);
    d.edge = v.edge;
    d.node = b.node;
    emit(std::move(d));
  }
}

// --- canonical form / area tightness ----------------------------------------

// A single-point segment carries no wire; emitters produce them as sloppy
// stubs. (The geometry model tolerates them, canonical output has none.)
void zero_length_seg(const Graph&, const LayoutGeometry& geom,
                     const LintConfig&, const LintEmit& emit) {
  for (const WireSeg& s : geom.segs) {
    if (is_run(s)) continue;
    Diagnostic d = at(s.x1, s.y1, s.layer);
    d.edge = s.edge;
    emit(std::move(d));
  }
}

// Two collinear runs of one edge on one layer that overlap or abut are one
// canonical run emitted as two records.
void mergeable_runs(const Graph&, const LayoutGeometry& geom,
                    const LintConfig&, const LintEmit& emit) {
  struct Run {
    EdgeId edge;
    std::uint16_t layer;
    std::uint32_t fixed;  ///< y for horizontal runs, x for vertical
    std::uint32_t lo, hi;
  };
  auto scan = [&](bool horizontal) {
    std::vector<Run> runs;
    for (const WireSeg& s : geom.segs) {
      if (!is_run(s) || s.horizontal() != horizontal) continue;
      if (horizontal)
        runs.push_back({s.edge, s.layer, s.y1, s.x1, s.x2});
      else
        runs.push_back({s.edge, s.layer, s.x1, s.y1, s.y2});
    }
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      return std::tie(a.edge, a.layer, a.fixed, a.lo, a.hi) <
             std::tie(b.edge, b.layer, b.fixed, b.lo, b.hi);
    });
    for (std::size_t i = 1; i < runs.size(); ++i) {
      const Run& a = runs[i - 1];
      const Run& b = runs[i];
      if (a.edge != b.edge || a.layer != b.layer || a.fixed != b.fixed)
        continue;
      if (b.lo > a.hi + 1) continue;  // gap: not mergeable
      Diagnostic d = horizontal ? at(b.lo, b.fixed, b.layer)
                                : at(b.fixed, b.lo, b.layer);
      d.edge = b.edge;
      d.detail = horizontal ? "adjacent horizontal runs"
                            : "adjacent vertical runs";
      emit(std::move(d));
    }
  };
  scan(true);
  scan(false);
}

// Two vias of one edge at one (x, y) with overlapping or abutting z-columns
// are one canonical via emitted as two records (exact duplicates included).
void redundant_via(const Graph&, const LayoutGeometry& geom,
                   const LintConfig&, const LintEmit& emit) {
  struct Col {
    EdgeId edge;
    std::uint32_t x, y;
    std::uint16_t z1, z2;
  };
  std::vector<Col> cols;
  cols.reserve(geom.vias.size());
  for (const Via& v : geom.vias) {
    if (v.z2 < v.z1) continue;
    cols.push_back({v.edge, v.x, v.y, v.z1, v.z2});
  }
  std::sort(cols.begin(), cols.end(), [](const Col& a, const Col& b) {
    return std::tie(a.edge, a.x, a.y, a.z1, a.z2) <
           std::tie(b.edge, b.x, b.y, b.z1, b.z2);
  });
  for (std::size_t i = 1; i < cols.size(); ++i) {
    const Col& a = cols[i - 1];
    Col& b = cols[i];
    if (a.edge != b.edge || a.x != b.x || a.y != b.y) continue;
    if (b.z1 > a.z2 + 1) continue;
    Diagnostic d = at(b.x, b.y, b.z1);
    d.edge = b.edge;
    d.detail = "z-columns " + std::to_string(a.z1) + ".." +
               std::to_string(a.z2) + " and " + std::to_string(b.z1) + ".." +
               std::to_string(b.z2) + " overlap or abut";
    emit(std::move(d));
    b.z2 = std::max(a.z2, b.z2);  // extend so a chain reports once per pair
  }
}

// Refuse to allocate per-row/column state for frames the checker would
// reject outright (coord-range); those layouts are the doctor's business.
bool frame_too_large(const LayoutGeometry& geom) {
  return geom.width > grid::kCoordMax || geom.height > grid::kCoordMax;
}

// A row or column strictly inside the content extent that holds no geometry
// at all is a wasted track: the layout could be compacted through it.
// Contiguous dead rows/columns are reported as one finding.
void dead_track(const LayoutGeometry& geom, LintShared& shared,
                const LintEmit& emit) {
  if (frame_too_large(geom)) return;
  const Occupancy& occ = shared.occupancy();
  if (!occ.any) return;
  auto report_gaps = [&](const std::vector<bool>& used, std::uint32_t lo,
                         std::uint32_t hi, bool is_col) {
    std::uint32_t i = lo;
    while (i <= hi) {
      if (used[i]) {
        ++i;
        continue;
      }
      const std::uint32_t start = i;
      while (i <= hi && !used[i]) ++i;
      Diagnostic d = is_col ? at(start, 0, 0) : at(0, start, 0);
      d.detail = std::string(is_col ? "columns " : "rows ") +
                 std::to_string(start) + ".." + std::to_string(i - 1) +
                 " carry no geometry";
      emit(std::move(d));
    }
  };
  if (occ.maxx > occ.minx) report_gaps(occ.col, occ.minx + 1, occ.maxx - 1, true);
  if (occ.maxy > occ.miny) report_gaps(occ.row, occ.miny + 1, occ.maxy - 1, false);
}

// The declared width/height must hug the content: no blank margin before the
// first occupied row/column or after the last one.
void bbox_slack(const LayoutGeometry& geom, LintShared& shared,
                const LintEmit& emit) {
  if (frame_too_large(geom)) return;
  const Occupancy& occ = shared.occupancy();
  if (!occ.any) return;
  std::string slack;
  auto add = [&](const char* side, std::uint64_t n) {
    if (n == 0) return;
    if (!slack.empty()) slack += ", ";
    slack += std::string(side) + "=" + std::to_string(n);
  };
  add("left", occ.minx);
  add("top", occ.miny);
  add("right", geom.width - 1 - occ.maxx);
  add("bottom", geom.height - 1 - occ.maxy);
  if (slack.empty()) return;
  Diagnostic d;
  d.detail = "blank margin (" + slack + ") around content [" +
             std::to_string(occ.minx) + ".." + std::to_string(occ.maxx) +
             "]x[" + std::to_string(occ.miny) + ".." +
             std::to_string(occ.maxy) + "]";
  emit(std::move(d));
}

}  // namespace

// Each record adds its span to a difference array per axis, so the cost is
// O(records + width + height), not the summed record lengths.
Occupancy::Occupancy(const LayoutGeometry& geom)
    : col(geom.width), row(geom.height) {
  std::vector<std::uint32_t> col_d(std::size_t{geom.width} + 1),
      row_d(std::size_t{geom.height} + 1);
  auto mark = [&](std::uint32_t x1, std::uint32_t y1, std::uint32_t x2,
                  std::uint32_t y2) {
    if (geom.width == 0 || geom.height == 0 || x1 > x2 || y1 > y2) return;
    x2 = std::min<std::uint32_t>(x2, geom.width - 1);
    y2 = std::min<std::uint32_t>(y2, geom.height - 1);
    if (x1 > x2 || y1 > y2) return;
    if (!any) {
      minx = x1, maxx = x2, miny = y1, maxy = y2;
      any = true;
    } else {
      minx = std::min(minx, x1), maxx = std::max(maxx, x2);
      miny = std::min(miny, y1), maxy = std::max(maxy, y2);
    }
    ++col_d[x1], --col_d[std::size_t{x2} + 1];
    ++row_d[y1], --row_d[std::size_t{y2} + 1];
  };
  for (const NodeBox& b : geom.boxes)
    if (b.w > 0 && b.h > 0) mark(b.x, b.y, b.x + b.w - 1, b.y + b.h - 1);
  for (const WireSeg& s : geom.segs) mark(s.x1, s.y1, s.x2, s.y2);
  for (const Via& v : geom.vias) mark(v.x, v.y, v.x, v.y);
  // The differences wrap below zero; the running sums, counts of the spans
  // open at i, do not.
  auto settle = [](const std::vector<std::uint32_t>& d,
                   std::vector<bool>& used) {
    std::uint32_t open = 0;
    for (std::size_t i = 0; i < used.size(); ++i) used[i] = (open += d[i]) != 0;
  };
  settle(col_d, col);
  settle(row_d, row);
}

const BoxIndex& LintShared::boxes() {
  if (!boxes_) boxes_.emplace(geom_.boxes);
  return *boxes_;
}

const Occupancy& LintShared::occupancy() {
  if (!occupancy_) occupancy_.emplace(geom_);
  return *occupancy_;
}

void run_lint_rule(LintRule r, const Graph& g, const LayoutGeometry& geom,
                   const LintConfig& cfg, LintShared& shared,
                   const LintEmit& emit) {
  switch (r) {
    case LintRule::kLayerParity: return layer_parity(g, geom, cfg, emit);
    case LintRule::kTurnViaGroup: return turn_via_group(g, geom, cfg, emit);
    case LintRule::kViaSpanWide: return via_span_wide(g, geom, cfg, emit);
    case LintRule::kThompsonKnockKnee:
      return thompson_knock_knee(geom, shared, emit);
    case LintRule::kTerminalRiserOfftrack:
      return terminal_riser_offtrack(geom, shared, emit);
    case LintRule::kZeroLengthSeg: return zero_length_seg(g, geom, cfg, emit);
    case LintRule::kMergeableRuns: return mergeable_runs(g, geom, cfg, emit);
    case LintRule::kRedundantVia: return redundant_via(g, geom, cfg, emit);
    case LintRule::kDeadTrack: return dead_track(geom, shared, emit);
    case LintRule::kBboxSlack: return bbox_slack(geom, shared, emit);
  }
}

}  // namespace mlvl::analysis::detail
