#include "robustness/fault_injector.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/gridkey.hpp"

namespace mlvl::robustness {
namespace {

using grid::key3;
using grid::key_x;
using grid::key_y;
using grid::key_z;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// All grid points of edge `e`, optionally excluding one segment or via (by
/// index into geom.segs / geom.vias), sorted and deduplicated. Via columns
/// are expanded in full — vias always connect, whatever the via rule.
std::vector<std::uint64_t> edge_cells(const LayoutGeometry& geom, EdgeId e,
                                      std::size_t skip_seg = kNone,
                                      std::size_t skip_via = kNone) {
  std::vector<std::uint64_t> cells;
  for (std::size_t i = 0; i < geom.segs.size(); ++i) {
    const WireSeg& s = geom.segs[i];
    if (s.edge != e || i == skip_seg) continue;
    for (std::uint32_t yy = s.y1; yy <= s.y2; ++yy)
      for (std::uint32_t xx = s.x1; xx <= s.x2; ++xx)
        cells.push_back(key3(xx, yy, s.layer));
  }
  for (std::size_t i = 0; i < geom.vias.size(); ++i) {
    const Via& v = geom.vias[i];
    if (v.edge != e || i == skip_via) continue;
    for (std::uint32_t zz = v.z1; zz <= v.z2; ++zz)
      cells.push_back(key3(v.x, v.y, zz));
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

/// True when the sorted point set forms one 6-connected component.
bool one_component(const std::vector<std::uint64_t>& p) {
  if (p.size() <= 1) return true;
  auto has = [&](std::uint64_t k) {
    return std::binary_search(p.begin(), p.end(), k);
  };
  std::vector<std::uint64_t> stack{p[0]};
  std::vector<bool> seen(p.size(), false);
  seen[0] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const std::uint64_t k = stack.back();
    stack.pop_back();
    const std::uint32_t x = key_x(k), y = key_y(k), z = key_z(k);
    const std::uint64_t nbr[6] = {x > 0 ? key3(x - 1, y, z) : k,
                                  key3(x + 1, y, z),
                                  y > 0 ? key3(x, y - 1, z) : k,
                                  key3(x, y + 1, z),
                                  z > 0 ? key3(x, y, z - 1) : k,
                                  key3(x, y, z + 1)};
    for (std::uint64_t nk : nbr) {
      if (nk == k || !has(nk)) continue;
      const std::size_t idx =
          std::lower_bound(p.begin(), p.end(), nk) - p.begin();
      if (!seen[idx]) {
        seen[idx] = true;
        ++reached;
        stack.push_back(nk);
      }
    }
  }
  return reached == p.size();
}

/// True when `k` or any of its 6 neighbours is in the sorted set `p`.
bool touches(const std::vector<std::uint64_t>& p, std::uint64_t k) {
  auto has = [&](std::uint64_t q) {
    return std::binary_search(p.begin(), p.end(), q);
  };
  if (has(k)) return true;
  const std::uint32_t x = key_x(k), y = key_y(k), z = key_z(k);
  if (x > 0 && has(key3(x - 1, y, z))) return true;
  if (has(key3(x + 1, y, z))) return true;
  if (y > 0 && has(key3(x, y - 1, z))) return true;
  if (has(key3(x, y + 1, z))) return true;
  if (z > 0 && has(key3(x, y, z - 1))) return true;
  if (has(key3(x, y, z + 1))) return true;
  return false;
}

std::vector<std::uint64_t> seg_cells(const WireSeg& s) {
  std::vector<std::uint64_t> cells;
  for (std::uint32_t yy = s.y1; yy <= s.y2; ++yy)
    for (std::uint32_t xx = s.x1; xx <= s.x2; ++xx)
      cells.push_back(key3(xx, yy, s.layer));
  return cells;
}

/// Seeded iteration order over n candidates: a rotation starting at a
/// seed-dependent offset, so different seeds pick different sites but every
/// applicable site is eventually tried.
struct Rotation {
  std::size_t n, start, i = 0;
  Rotation(std::size_t n_, std::uint64_t seed) : n(n_) {
    std::uint64_t s = seed;
    start = n == 0 ? 0 : static_cast<std::size_t>(splitmix64(s) % n);
  }
  bool next(std::size_t& out) {
    if (i >= n) return false;
    out = (start + i++) % n;
    return true;
  }
};

std::optional<InjectedFault> made(FaultKind kind, std::string note) {
  return InjectedFault{kind, expected_code(kind), std::move(note)};
}

// --- geometry operators ----------------------------------------------------

std::optional<InjectedFault> shift_segment(const Graph&, LayoutGeometry& geom,
                                           std::uint64_t seed) {
  Rotation rot(geom.segs.size(), seed);
  for (std::size_t i; rot.next(i);) {
    WireSeg& s = geom.segs[i];
    if (s.length() < 3) continue;
    // Slide perpendicular to the run. A one-unit slide stays 6-adjacent to
    // the risers at the run's ends, so shift by two tracks; both directions
    // are tried to stay inside the grid.
    const bool horiz = s.horizontal();
    for (int delta : {+2, -2}) {
      WireSeg moved = s;
      if (horiz) {
        if (delta > 0 ? (s.y2 + 2 >= geom.height) : (s.y1 < 2)) continue;
        moved.y1 = static_cast<std::uint32_t>(moved.y1 + delta);
        moved.y2 = static_cast<std::uint32_t>(moved.y2 + delta);
      } else {
        if (delta > 0 ? (s.x2 + 2 >= geom.width) : (s.x1 < 2)) continue;
        moved.x1 = static_cast<std::uint32_t>(moved.x1 + delta);
        moved.x2 = static_cast<std::uint32_t>(moved.x2 + delta);
      }
      const auto rest = edge_cells(geom, s.edge, /*skip_seg=*/i);
      if (rest.empty()) continue;
      const auto cells = seg_cells(moved);
      if (std::any_of(cells.begin(), cells.end(),
                      [&](std::uint64_t k) { return touches(rest, k); }))
        continue;  // still attached: disconnection not guaranteed
      s = moved;
      return made(FaultKind::kShiftSegmentOffTrack,
                  "seg " + std::to_string(i) + " of edge " +
                      std::to_string(s.edge) + " shifted off-track");
    }
  }
  return std::nullopt;
}

std::optional<InjectedFault> swap_segment_layer(const Graph&,
                                                LayoutGeometry& geom,
                                                std::uint64_t seed) {
  Rotation rot(geom.segs.size(), seed);
  for (std::size_t i; rot.next(i);) {
    WireSeg& s = geom.segs[i];
    if (s.length() < 2) continue;
    for (int delta : {+2, -2, +1, -1}) {
      const int nl = static_cast<int>(s.layer) + delta;
      if (nl < 1 || nl > static_cast<int>(geom.num_layers)) continue;
      WireSeg moved = s;
      moved.layer = static_cast<std::uint16_t>(nl);
      const auto rest = edge_cells(geom, s.edge, /*skip_seg=*/i);
      if (rest.empty()) continue;
      const auto cells = seg_cells(moved);
      if (std::any_of(cells.begin(), cells.end(),
                      [&](std::uint64_t k) { return touches(rest, k); }))
        continue;
      s = moved;
      return made(FaultKind::kSwapSegmentLayer,
                  "seg " + std::to_string(i) + " moved to layer " +
                      std::to_string(nl));
    }
  }
  return std::nullopt;
}

std::optional<InjectedFault> relabel_segment(const Graph& g,
                                             LayoutGeometry& geom,
                                             std::uint64_t seed) {
  if (g.num_edges() < 2) return std::nullopt;
  Rotation rot(geom.segs.size(), seed);
  for (std::size_t i; rot.next(i);) {
    WireSeg& s = geom.segs[i];
    const auto rest = edge_cells(geom, s.edge, /*skip_seg=*/i);
    const auto cells = seg_cells(s);
    // The relabelled segment must still share a point with its old edge
    // (a via junction) so the two edge ids provably collide there.
    if (!std::any_of(cells.begin(), cells.end(), [&](std::uint64_t k) {
          return std::binary_search(rest.begin(), rest.end(), k);
        }))
      continue;
    const EdgeId old = s.edge;
    s.edge = (s.edge + 1) % g.num_edges();
    return made(FaultKind::kRelabelSegment,
                "seg " + std::to_string(i) + " relabelled " +
                    std::to_string(old) + " -> " + std::to_string(s.edge));
  }
  return std::nullopt;
}

std::optional<InjectedFault> diagonal_segment(const Graph&,
                                              LayoutGeometry& geom,
                                              std::uint64_t seed) {
  Rotation rot(geom.segs.size(), seed);
  for (std::size_t i; rot.next(i);) {
    WireSeg& s = geom.segs[i];
    if (!s.horizontal() || s.x1 == s.x2) continue;  // need a true run
    if (s.y2 + 1 < geom.height)
      ++s.y2;
    else if (s.y1 > 0)
      --s.y1;  // de-normalizes (y1 > y2): equally malformed
    else
      continue;
    return made(FaultKind::kDiagonalSegment,
                "seg " + std::to_string(i) + " made diagonal");
  }
  return std::nullopt;
}

std::optional<InjectedFault> drop_via(const Graph& g, LayoutGeometry& geom,
                                      std::uint64_t seed) {
  // A via between adjacent layers is redundant for connectivity (the grid
  // model makes z-neighbours adjacent), so the provable drop site is a
  // terminal via: the one anchor of the wire inside a node box. Removing it
  // leaves the wire connected but short of its terminal.
  Rotation rot(geom.vias.size(), seed);
  for (std::size_t i; rot.next(i);) {
    const Via& v = geom.vias[i];
    if (v.edge >= g.num_edges()) continue;
    const Edge& ed = g.edge(v.edge);
    const NodeBox* term = nullptr;
    for (const NodeBox& b : geom.boxes)
      if ((b.node == ed.u || b.node == ed.v) && b.layer >= v.z1 &&
          b.layer <= v.z2 && b.contains(v.x, v.y)) {
        term = &b;
        break;
      }
    if (!term) continue;
    const auto rest = edge_cells(geom, v.edge, kNone, /*skip_via=*/i);
    if (rest.empty() || !one_component(rest)) continue;
    const bool still_touches =
        std::any_of(rest.begin(), rest.end(), [&](std::uint64_t k) {
          return key_z(k) == term->layer && term->contains(key_x(k), key_y(k));
        });
    if (still_touches) continue;
    const std::string note = "terminal via " + std::to_string(i) +
                             " of edge " + std::to_string(v.edge) +
                             " dropped (node " + std::to_string(term->node) +
                             ")";
    geom.vias.erase(geom.vias.begin() + static_cast<std::ptrdiff_t>(i));
    return made(FaultKind::kDropVia, note);
  }
  return std::nullopt;
}

std::optional<InjectedFault> duplicate_via_foreign(const Graph& g,
                                                   LayoutGeometry& geom,
                                                   std::uint64_t seed) {
  if (g.num_edges() < 2 || geom.vias.empty()) return std::nullopt;
  Rotation rot(geom.vias.size(), seed);
  std::size_t i = 0;
  rot.next(i);
  Via copy = geom.vias[i];
  copy.edge = (copy.edge + 1) % g.num_edges();
  geom.vias.push_back(copy);
  return made(FaultKind::kDuplicateViaForeign,
              "via " + std::to_string(i) + " duplicated under edge " +
                  std::to_string(copy.edge));
}

std::optional<InjectedFault> truncate_via_span(const Graph& g,
                                               LayoutGeometry& geom,
                                               std::uint64_t seed) {
  Rotation rot(geom.vias.size(), seed);
  for (std::size_t i; rot.next(i);) {
    Via& v = geom.vias[i];
    if (v.z1 != 1 || v.z2 - v.z1 < 2) continue;
    // Which terminal box does the via's layer-1 point sit in?
    const NodeBox* term = nullptr;
    const Edge& ed = g.edge(v.edge);
    for (const NodeBox& b : geom.boxes)
      if ((b.node == ed.u || b.node == ed.v) && b.layer == 1 &&
          b.contains(v.x, v.y)) {
        term = &b;
        break;
      }
    if (!term) continue;
    // After cutting off the layer-1 point: the wire must stay connected (else
    // the declared code would be kEdgeDisconnected) and nothing else of the
    // edge may still touch the box.
    Via cut = v;
    ++cut.z1;
    std::vector<std::uint64_t> cells = edge_cells(geom, v.edge, kNone, i);
    for (std::uint32_t zz = cut.z1; zz <= cut.z2; ++zz)
      cells.push_back(key3(v.x, v.y, zz));
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    if (!one_component(cells)) continue;
    const bool still_touches =
        std::any_of(cells.begin(), cells.end(), [&](std::uint64_t k) {
          return key_z(k) == term->layer && term->contains(key_x(k), key_y(k));
        });
    if (still_touches) continue;
    ++v.z1;
    return made(FaultKind::kTruncateViaSpan,
                "terminal via " + std::to_string(i) + " of edge " +
                    std::to_string(v.edge) + " cut short of node " +
                    std::to_string(term->node));
  }
  return std::nullopt;
}

std::optional<InjectedFault> invert_via_span(const Graph&,
                                             LayoutGeometry& geom,
                                             std::uint64_t seed) {
  if (geom.vias.empty()) return std::nullopt;
  Rotation rot(geom.vias.size(), seed);
  std::size_t i = 0;
  rot.next(i);
  geom.vias[i].z1 = 0;  // below layer 1: z-range invalid
  return made(FaultKind::kInvertViaSpan,
              "via " + std::to_string(i) + " z1 zeroed");
}

std::optional<InjectedFault> steal_terminal(const Graph& g,
                                            LayoutGeometry& geom,
                                            std::uint64_t seed) {
  Rotation rot(geom.boxes.size(), seed);
  for (std::size_t i; rot.next(i);) {
    NodeBox& bi = geom.boxes[i];
    const NodeId a = bi.node;
    if (a >= g.num_nodes()) continue;
    for (std::size_t j = 0; j < geom.boxes.size(); ++j) {
      NodeBox& bj = geom.boxes[j];
      const NodeId b = bj.node;
      if (j == i || b == a) continue;
      // Some edge at `a` that does not also end at `b` must have wire inside
      // bi; after the swap that wire sits in a box labelled `b` — theft.
      bool provable = false;
      for (EdgeId e : g.incident_edges(a)) {
        const Edge& ed = g.edge(e);
        if (ed.u == b || ed.v == b) continue;
        const auto cells = edge_cells(geom, e);
        if (std::any_of(cells.begin(), cells.end(), [&](std::uint64_t k) {
              return key_z(k) == bi.layer && bi.contains(key_x(k), key_y(k));
            })) {
          provable = true;
          break;
        }
      }
      if (!provable) continue;
      std::swap(bi.node, bj.node);
      return made(FaultKind::kStealTerminal,
                  "boxes of nodes " + std::to_string(a) + " and " +
                      std::to_string(b) + " swapped");
    }
  }
  return std::nullopt;
}

std::optional<InjectedFault> overlap_boxes(const Graph&, LayoutGeometry& geom,
                                           std::uint64_t seed) {
  Rotation rot(geom.boxes.size(), seed);
  for (std::size_t i; rot.next(i);) {
    const NodeBox& bi = geom.boxes[i];
    for (std::size_t j = 0; j < geom.boxes.size(); ++j) {
      NodeBox& bj = geom.boxes[j];
      if (j == i || bj.layer != bi.layer) continue;
      // The moved box must stay in bounds, or the overlap scan skips it.
      if (static_cast<std::uint64_t>(bi.x) + bj.w > geom.width ||
          static_cast<std::uint64_t>(bi.y) + bj.h > geom.height)
        continue;
      bj.x = bi.x;
      bj.y = bi.y;
      return made(FaultKind::kOverlapNodeBoxes,
                  "box of node " + std::to_string(bj.node) +
                      " moved onto box of node " + std::to_string(bi.node));
    }
  }
  return std::nullopt;
}

std::optional<InjectedFault> duplicate_box(const Graph&, LayoutGeometry& geom,
                                           std::uint64_t seed) {
  if (geom.boxes.empty()) return std::nullopt;
  Rotation rot(geom.boxes.size(), seed);
  std::size_t i = 0;
  rot.next(i);
  geom.boxes.push_back(geom.boxes[i]);
  return made(FaultKind::kDuplicateNodeBox,
              "box of node " + std::to_string(geom.boxes[i].node) +
                  " duplicated");
}

std::optional<InjectedFault> push_box_out(const Graph&, LayoutGeometry& geom,
                                          std::uint64_t seed) {
  if (geom.boxes.empty()) return std::nullopt;
  Rotation rot(geom.boxes.size(), seed);
  std::size_t i = 0;
  rot.next(i);
  geom.boxes[i].x = geom.width;  // x + w > width, whatever w is
  return made(FaultKind::kPushBoxOutOfBounds,
              "box of node " + std::to_string(geom.boxes[i].node) +
                  " pushed past the right edge");
}

std::optional<InjectedFault> shrink_bounds(const Graph&, LayoutGeometry& geom,
                                           std::uint64_t) {
  std::uint32_t maxx = 0;
  for (const WireSeg& s : geom.segs) maxx = std::max(maxx, s.x2);
  if (maxx == 0) return std::nullopt;
  geom.width = maxx;  // the widest seg now has x2 >= width
  return made(FaultKind::kShrinkBoundingBox,
              "width shrunk to " + std::to_string(maxx));
}

std::optional<InjectedFault> unroute_edge(const Graph& g, LayoutGeometry& geom,
                                          std::uint64_t seed) {
  if (g.num_edges() == 0) return std::nullopt;
  Rotation rot(g.num_edges(), seed);
  for (std::size_t i; rot.next(i);) {
    const EdgeId e = static_cast<EdgeId>(i);
    const bool routed =
        std::any_of(geom.segs.begin(), geom.segs.end(),
                    [e](const WireSeg& s) { return s.edge == e; }) ||
        std::any_of(geom.vias.begin(), geom.vias.end(),
                    [e](const Via& v) { return v.edge == e; });
    if (!routed) continue;
    std::erase_if(geom.segs, [e](const WireSeg& s) { return s.edge == e; });
    std::erase_if(geom.vias, [e](const Via& v) { return v.edge == e; });
    return made(FaultKind::kUnrouteEdge,
                "edge " + std::to_string(e) + " fully unrouted");
  }
  return std::nullopt;
}

// --- discipline operators (checker-invisible, linter-visible) ---------------

std::optional<InjectedFault> demote_to_wrong_layer(const Graph& g,
                                                   LayoutGeometry& geom,
                                                   std::uint64_t seed) {
  // Move a horizontal run to an even layer while provably keeping the layout
  // checker-valid: every target cell must be free of foreign geometry and of
  // node boxes, and the edge must stay one connected component that still
  // reaches both terminal boxes. The result breaks only the Sec. 2.4 layer
  // discipline — Code::kLintLayerParity, which the Checker never emits.
  std::vector<std::pair<std::uint64_t, EdgeId>> occ;
  for (const WireSeg& s : geom.segs)
    for (std::uint32_t yy = s.y1; yy <= s.y2; ++yy)
      for (std::uint32_t xx = s.x1; xx <= s.x2; ++xx)
        occ.emplace_back(key3(xx, yy, s.layer), s.edge);
  for (const Via& v : geom.vias)
    for (std::uint32_t zz = v.z1; zz <= v.z2; ++zz)
      occ.emplace_back(key3(v.x, v.y, zz), v.edge);
  std::sort(occ.begin(), occ.end());
  auto blocked = [&](std::uint64_t k, EdgeId own) {
    auto it = std::lower_bound(occ.begin(), occ.end(),
                               std::make_pair(k, EdgeId{0}));
    for (; it != occ.end() && it->first == k; ++it)
      if (it->second != own) return true;
    return false;
  };
  auto in_any_box = [&](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    return std::any_of(geom.boxes.begin(), geom.boxes.end(),
                       [&](const NodeBox& b) {
                         return b.layer == z && b.contains(x, y);
                       });
  };

  Rotation rot(geom.segs.size(), seed);
  for (std::size_t i; rot.next(i);) {
    WireSeg& s = geom.segs[i];
    if (!s.horizontal() || s.x1 == s.x2 || s.layer % 2 == 0) continue;
    for (std::uint32_t l2 = 2; l2 <= geom.num_layers; l2 += 2) {
      bool free = true;
      for (std::uint32_t xx = s.x1; xx <= s.x2 && free; ++xx)
        free = !blocked(key3(xx, s.y1, l2), s.edge) &&
               !in_any_box(xx, s.y1, l2);
      if (!free) continue;
      const std::uint16_t old_layer = s.layer;
      s.layer = static_cast<std::uint16_t>(l2);
      const auto cells = edge_cells(geom, s.edge);
      bool valid = one_component(cells);
      if (valid) {
        // Both terminal boxes must still be reached on their active layer.
        const Edge& ed = g.edge(s.edge);
        for (NodeId end : {ed.u, ed.v}) {
          bool reached = false;
          for (const NodeBox& b : geom.boxes) {
            if (b.node != end) continue;
            reached = std::any_of(
                cells.begin(), cells.end(), [&](std::uint64_t k) {
                  return key_z(k) == b.layer &&
                         b.contains(key_x(k), key_y(k));
                });
            if (reached) break;
          }
          valid = valid && reached;
        }
      }
      if (!valid) {
        s.layer = old_layer;
        continue;
      }
      return made(FaultKind::kDemoteToWrongLayer,
                  "seg " + std::to_string(i) + " of edge " +
                      std::to_string(s.edge) + " demoted from layer " +
                      std::to_string(old_layer) + " to even layer " +
                      std::to_string(l2));
    }
  }
  return std::nullopt;
}

// --- serialized-text operators ---------------------------------------------

std::optional<InjectedFault> corrupt_header(std::string& text) {
  const std::size_t pos = text.find("mlvl-graph");
  if (pos == std::string::npos) return std::nullopt;
  text.replace(pos, 10, "mlvl-bogus");
  return made(FaultKind::kCorruptHeader, "graph header tag damaged");
}

std::optional<InjectedFault> truncate_record(std::string& text) {
  // Cut at the last field separator: the final record keeps its tag but
  // loses a field, which is a per-line arity error.
  const std::size_t pos = text.find_last_of(' ');
  if (pos == std::string::npos) return std::nullopt;
  text.resize(pos + 1);
  return made(FaultKind::kTruncateRecord, "blob cut mid-record");
}

std::optional<InjectedFault> append_garbage(std::string& text,
                                            std::uint64_t seed) {
  std::uint64_t s = seed;
  text += "garbage " + std::to_string(splitmix64(s)) + "\n";
  return made(FaultKind::kAppendGarbage, "junk line appended");
}

}  // namespace

std::span<const FaultKind> all_faults() {
  static constexpr FaultKind kAll[] = {
      FaultKind::kShiftSegmentOffTrack, FaultKind::kSwapSegmentLayer,
      FaultKind::kRelabelSegment,       FaultKind::kDiagonalSegment,
      FaultKind::kDropVia,              FaultKind::kDuplicateViaForeign,
      FaultKind::kTruncateViaSpan,      FaultKind::kInvertViaSpan,
      FaultKind::kStealTerminal,        FaultKind::kOverlapNodeBoxes,
      FaultKind::kDuplicateNodeBox,     FaultKind::kPushBoxOutOfBounds,
      FaultKind::kShrinkBoundingBox,    FaultKind::kUnrouteEdge,
      FaultKind::kDemoteToWrongLayer,   FaultKind::kCorruptHeader,
      FaultKind::kTruncateRecord,       FaultKind::kAppendGarbage,
  };
  return kAll;
}

const char* fault_name(FaultKind k) {
  switch (k) {
    case FaultKind::kShiftSegmentOffTrack: return "shift-segment-off-track";
    case FaultKind::kSwapSegmentLayer: return "swap-segment-layer";
    case FaultKind::kRelabelSegment: return "relabel-segment";
    case FaultKind::kDiagonalSegment: return "diagonal-segment";
    case FaultKind::kDropVia: return "drop-via";
    case FaultKind::kDuplicateViaForeign: return "duplicate-via-foreign";
    case FaultKind::kTruncateViaSpan: return "truncate-via-span";
    case FaultKind::kInvertViaSpan: return "invert-via-span";
    case FaultKind::kStealTerminal: return "steal-terminal";
    case FaultKind::kOverlapNodeBoxes: return "overlap-node-boxes";
    case FaultKind::kDuplicateNodeBox: return "duplicate-node-box";
    case FaultKind::kPushBoxOutOfBounds: return "push-box-out-of-bounds";
    case FaultKind::kShrinkBoundingBox: return "shrink-bounding-box";
    case FaultKind::kUnrouteEdge: return "unroute-edge";
    case FaultKind::kDemoteToWrongLayer: return "demote-to-wrong-layer";
    case FaultKind::kCorruptHeader: return "corrupt-header";
    case FaultKind::kTruncateRecord: return "truncate-record";
    case FaultKind::kAppendGarbage: return "append-garbage";
  }
  return "unknown";
}

bool is_text_fault(FaultKind k) {
  return k == FaultKind::kCorruptHeader || k == FaultKind::kTruncateRecord ||
         k == FaultKind::kAppendGarbage;
}

bool is_lint_fault(FaultKind k) {
  return k == FaultKind::kDemoteToWrongLayer;
}

Code expected_code(FaultKind k) {
  switch (k) {
    case FaultKind::kShiftSegmentOffTrack: return Code::kEdgeDisconnected;
    case FaultKind::kSwapSegmentLayer: return Code::kEdgeDisconnected;
    case FaultKind::kRelabelSegment: return Code::kPointCollision;
    case FaultKind::kDiagonalSegment: return Code::kSegMalformed;
    case FaultKind::kDropVia: return Code::kEdgeMissesTerminal;
    case FaultKind::kDuplicateViaForeign: return Code::kPointCollision;
    case FaultKind::kTruncateViaSpan: return Code::kEdgeMissesTerminal;
    case FaultKind::kInvertViaSpan: return Code::kViaSpanInvalid;
    case FaultKind::kStealTerminal: return Code::kTerminalTheft;
    case FaultKind::kOverlapNodeBoxes: return Code::kBoxOverlap;
    case FaultKind::kDuplicateNodeBox: return Code::kBoxDuplicate;
    case FaultKind::kPushBoxOutOfBounds: return Code::kBoxOutOfBounds;
    case FaultKind::kShrinkBoundingBox: return Code::kSegOutOfBounds;
    case FaultKind::kUnrouteEdge: return Code::kEdgeUnrouted;
    case FaultKind::kDemoteToWrongLayer: return Code::kLintLayerParity;
    case FaultKind::kCorruptHeader: return Code::kParseBadHeader;
    case FaultKind::kTruncateRecord: return Code::kParseBadRecord;
    case FaultKind::kAppendGarbage: return Code::kParseTrailingGarbage;
  }
  return Code::kNone;
}

std::optional<InjectedFault> inject(FaultKind kind, const Graph& g,
                                    LayoutGeometry& geom, std::uint64_t seed) {
  switch (kind) {
    case FaultKind::kShiftSegmentOffTrack: return shift_segment(g, geom, seed);
    case FaultKind::kSwapSegmentLayer: return swap_segment_layer(g, geom, seed);
    case FaultKind::kRelabelSegment: return relabel_segment(g, geom, seed);
    case FaultKind::kDiagonalSegment: return diagonal_segment(g, geom, seed);
    case FaultKind::kDropVia: return drop_via(g, geom, seed);
    case FaultKind::kDuplicateViaForeign:
      return duplicate_via_foreign(g, geom, seed);
    case FaultKind::kTruncateViaSpan: return truncate_via_span(g, geom, seed);
    case FaultKind::kInvertViaSpan: return invert_via_span(g, geom, seed);
    case FaultKind::kStealTerminal: return steal_terminal(g, geom, seed);
    case FaultKind::kOverlapNodeBoxes: return overlap_boxes(g, geom, seed);
    case FaultKind::kDuplicateNodeBox: return duplicate_box(g, geom, seed);
    case FaultKind::kPushBoxOutOfBounds: return push_box_out(g, geom, seed);
    case FaultKind::kShrinkBoundingBox: return shrink_bounds(g, geom, seed);
    case FaultKind::kUnrouteEdge: return unroute_edge(g, geom, seed);
    case FaultKind::kDemoteToWrongLayer:
      return demote_to_wrong_layer(g, geom, seed);
    default: return std::nullopt;  // text faults need inject_text
  }
}

std::optional<InjectedFault> inject_text(FaultKind kind, std::string& text,
                                         std::uint64_t seed) {
  switch (kind) {
    case FaultKind::kCorruptHeader: return corrupt_header(text);
    case FaultKind::kTruncateRecord: return truncate_record(text);
    case FaultKind::kAppendGarbage: return append_garbage(text, seed);
    default: return std::nullopt;  // geometry faults need inject()
  }
}

std::string corrupt_bytes(std::string text, std::uint64_t seed) {
  std::uint64_t s = seed;
  if (text.empty()) return text;
  switch (splitmix64(s) % 5) {
    case 0: {  // flip one byte to a random printable-ish value
      const std::size_t pos = splitmix64(s) % text.size();
      text[pos] = static_cast<char>(splitmix64(s) % 256);
      break;
    }
    case 1:  // truncate
      text.resize(splitmix64(s) % text.size());
      break;
    case 2: {  // insert a byte
      const std::size_t pos = splitmix64(s) % (text.size() + 1);
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos),
                  static_cast<char>(splitmix64(s) % 256));
      break;
    }
    case 3: {  // delete a byte
      const std::size_t pos = splitmix64(s) % text.size();
      text.erase(text.begin() + static_cast<std::ptrdiff_t>(pos));
      break;
    }
    default: {  // duplicate a chunk somewhere else
      const std::size_t from = splitmix64(s) % text.size();
      const std::size_t len =
          std::min<std::size_t>(1 + splitmix64(s) % 16, text.size() - from);
      const std::size_t to = splitmix64(s) % (text.size() + 1);
      text.insert(to, text.substr(from, len));
      break;
    }
  }
  return text;
}

}  // namespace mlvl::robustness
