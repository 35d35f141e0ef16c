// Point-expanding reference checker (see point_oracle.hpp).
#include "point_oracle.hpp"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "core/gridkey.hpp"

namespace mlvl::oracle {
namespace {

using grid::key3;
using grid::key_x;
using grid::key_y;
using grid::key_z;
using grid::kCoordMax;

Diagnostic at_key(std::uint64_t k, Diagnostic d) {
  d.has_point = true;
  d.x = key_x(k);
  d.y = key_y(k);
  d.layer = static_cast<std::uint16_t>(key_z(k));
  return d;
}

struct Frame {
  std::vector<const NodeBox*> box_of;
  std::vector<std::uint32_t> reg_boxes;
  std::vector<char> edge_ok;
};

/// Record-level frame rules, in record order: boxes, box overlaps (one per
/// overlapping box, at the top-left cell of its first overlap), segments,
/// vias. Box overlap is found by expanding cells here, independently of the
/// Checker's interval sweep.
void frame_scan(const Graph& g, const LayoutGeometry& geom,
                std::vector<Diagnostic>& out, Frame& fr) {
  fr.box_of.assign(g.num_nodes(), nullptr);
  fr.edge_ok.assign(g.num_edges(), 1);
  if (geom.boxes.size() != g.num_nodes())
    out.push_back({.code = Code::kBoxCountMismatch,
                   .detail = std::to_string(geom.boxes.size()) + " boxes for " +
                             std::to_string(g.num_nodes()) + " nodes"});
  for (std::size_t bi = 0; bi < geom.boxes.size(); ++bi) {
    const NodeBox& b = geom.boxes[bi];
    if (b.node >= g.num_nodes()) {
      out.push_back({.code = Code::kBoxUnknownNode,
                     .detail = "node id " + std::to_string(b.node)});
      continue;
    }
    if (fr.box_of[b.node]) {
      out.push_back({.code = Code::kBoxDuplicate, .node = b.node});
      continue;
    }
    fr.box_of[b.node] = &b;
    bool ok = true;
    if (b.w == 0 || b.h == 0 ||
        static_cast<std::uint64_t>(b.x) + b.w > geom.width ||
        static_cast<std::uint64_t>(b.y) + b.h > geom.height) {
      out.push_back({.code = Code::kBoxOutOfBounds, .has_point = true,
                     .x = b.x, .y = b.y, .layer = b.layer, .node = b.node});
      ok = false;
    }
    if (b.layer < 1 || b.layer > geom.num_layers) {
      out.push_back({.code = Code::kBoxLayerRange, .has_point = true,
                     .x = b.x, .y = b.y, .layer = b.layer, .node = b.node});
      ok = false;
    }
    if (ok) fr.reg_boxes.push_back(static_cast<std::uint32_t>(bi));
  }

  // Box overlap: each registered box's cells against the cells of every
  // earlier-indexed registered box; the first overlapping cell in (y, x)
  // order is reported once per later box.
  {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> cells;
    for (std::uint32_t bi : fr.reg_boxes) {
      const NodeBox& b = geom.boxes[bi];
      for (std::uint32_t y = b.y; y < b.y + b.h; ++y)
        for (std::uint32_t x = b.x; x < b.x + b.w; ++x)
          cells.emplace_back(key3(x, y, b.layer), bi);
    }
    std::sort(cells.begin(), cells.end());
    std::vector<std::pair<std::uint32_t, std::uint64_t>> first;  // later, key
    for (std::size_t i = 0; i < cells.size();) {
      std::size_t j = i;
      while (j < cells.size() && cells[j].first == cells[i].first) ++j;
      for (std::size_t k = i + 1; k < j; ++k)
        first.emplace_back(cells[k].second, cells[k].first);
      i = j;
    }
    std::sort(first.begin(), first.end(), [](const auto& l, const auto& r) {
      // (later box, y, x) — keys of one box share a layer.
      return std::tuple(l.first, key_y(l.second), key_x(l.second)) <
             std::tuple(r.first, key_y(r.second), key_x(r.second));
    });
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (i > 0 && first[i].first == first[i - 1].first) continue;
      const NodeBox& b = geom.boxes[first[i].first];
      out.push_back(
          at_key(first[i].second, {.code = Code::kBoxOverlap, .node = b.node}));
    }
  }

  for (const WireSeg& s : geom.segs) {
    if (s.edge >= g.num_edges()) {
      out.push_back({.code = Code::kSegUnknownEdge, .has_point = true,
                     .x = s.x1, .y = s.y1, .layer = s.layer,
                     .detail = "edge id " + std::to_string(s.edge)});
      continue;
    }
    bool ok = true;
    if (s.x1 > s.x2 || s.y1 > s.y2 || (s.x1 != s.x2 && s.y1 != s.y2)) {
      out.push_back({.code = Code::kSegMalformed, .has_point = true,
                     .x = s.x1, .y = s.y1, .layer = s.layer, .edge = s.edge});
      ok = false;
    }
    if (ok && (s.x2 >= geom.width || s.y2 >= geom.height)) {
      out.push_back({.code = Code::kSegOutOfBounds, .has_point = true,
                     .x = s.x2, .y = s.y2, .layer = s.layer, .edge = s.edge});
      ok = false;
    }
    if (s.layer < 1 || s.layer > geom.num_layers) {
      out.push_back({.code = Code::kSegLayerRange, .has_point = true,
                     .x = s.x1, .y = s.y1, .layer = s.layer, .edge = s.edge});
      ok = false;
    }
    if (!ok) fr.edge_ok[s.edge] = 0;
  }
  for (const Via& v : geom.vias) {
    if (v.edge >= g.num_edges()) {
      out.push_back({.code = Code::kViaUnknownEdge, .has_point = true,
                     .x = v.x, .y = v.y, .layer = v.z1,
                     .detail = "edge id " + std::to_string(v.edge)});
      continue;
    }
    bool ok = true;
    if (v.z1 < 1 || v.z2 > geom.num_layers || v.z1 > v.z2) {
      out.push_back({.code = Code::kViaSpanInvalid, .has_point = true,
                     .x = v.x, .y = v.y, .layer = v.z1, .edge = v.edge});
      ok = false;
    }
    if (v.x >= geom.width || v.y >= geom.height) {
      out.push_back({.code = Code::kViaOutOfBounds, .has_point = true,
                     .x = v.x, .y = v.y, .layer = v.z1, .edge = v.edge});
      ok = false;
    }
    if (!ok) fr.edge_ok[v.edge] = 0;
  }
}

/// One edge's connectivity over its own points: union-find with +x, +y and
/// +z neighbour probes in the sorted key array.
void verify_edge(const Graph& g, EdgeId e, std::vector<std::uint64_t>& p,
                 const std::vector<const NodeBox*>& box_of,
                 std::vector<Diagnostic>& out) {
  if (p.empty()) {
    out.push_back({.code = Code::kEdgeUnrouted, .edge = e});
    return;
  }
  std::sort(p.begin(), p.end());
  p.erase(std::unique(p.begin(), p.end()), p.end());
  const auto n = static_cast<std::uint32_t>(p.size());
  std::vector<std::uint32_t> parent(n);
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](std::uint32_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  auto probe = [&](std::uint32_t i, std::uint64_t want) {
    const auto it = std::lower_bound(p.begin() + i + 1, p.end(), want);
    if (it == p.end() || *it != want) return;
    const std::uint32_t a = find(i);
    const std::uint32_t b = find(static_cast<std::uint32_t>(it - p.begin()));
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    if (key_x(p[i]) != kCoordMax) probe(i, p[i] + 1);
    if (key_y(p[i]) != kCoordMax) probe(i, p[i] + (1ull << grid::kCoordBits));
    probe(i, p[i] + (1ull << (2 * grid::kCoordBits)));
  }
  const std::uint32_t root = find(0);
  for (std::uint32_t i = 1; i < n; ++i)
    if (find(i) != root) {
      out.push_back(at_key(p[i], {.code = Code::kEdgeDisconnected, .edge = e}));
      return;
    }
  const Edge& ed = g.edge(e);
  const NodeBox* bu = box_of[ed.u];
  const NodeBox* bv = box_of[ed.v];
  bool touch_u = false, touch_v = false;
  for (std::uint64_t k : p) {
    if (bu && key_z(k) == bu->layer && bu->contains(key_x(k), key_y(k)))
      touch_u = true;
    if (bv && key_z(k) == bv->layer && bv->contains(key_x(k), key_y(k)))
      touch_v = true;
  }
  if ((!touch_u && bu) || (!touch_v && bv)) {
    const NodeBox* m = (!touch_u && bu) ? bu : bv;
    out.push_back({.code = Code::kEdgeMissesTerminal, .has_point = true,
                   .x = m->x, .y = m->y, .layer = m->layer, .edge = e,
                   .node = m->node});
  }
}

}  // namespace

OracleReport check_points(const Graph& g, const LayoutGeometry& geom,
                          ViaRule rule) {
  OracleReport rep;
  if (geom.width > kCoordMax || geom.height > kCoordMax ||
      geom.num_layers > kCoordMax) {
    rep.frame.push_back({.code = Code::kCoordRange});
    return rep;
  }
  Frame fr;
  frame_scan(g, geom, rep.frame, fr);

  // Occupancy: every claimed (point, edge) of a frame-valid edge.
  std::vector<std::pair<std::uint64_t, EdgeId>> occ;
  for (const WireSeg& s : geom.segs) {
    if (s.edge >= g.num_edges() || !fr.edge_ok[s.edge]) continue;
    for (std::uint32_t y = s.y1; y <= s.y2; ++y)
      for (std::uint32_t x = s.x1; x <= s.x2; ++x)
        occ.emplace_back(key3(x, y, s.layer), s.edge);
  }
  for (const Via& v : geom.vias) {
    if (v.edge >= g.num_edges() || !fr.edge_ok[v.edge]) continue;
    for (std::uint32_t z = v.z1; z <= v.z2; ++z)
      if (rule == ViaRule::kBlocking || z == v.z1 || z == v.z2)
        occ.emplace_back(key3(v.x, v.y, z), v.edge);
  }
  std::sort(occ.begin(), occ.end());
  occ.erase(std::unique(occ.begin(), occ.end()), occ.end());
  rep.points = occ.size();
  for (std::size_t i = 0; i < occ.size();) {
    std::size_t j = i;
    while (j < occ.size() && occ[j].first == occ[i].first) ++j;
    for (std::size_t a = i; a < j; ++a)
      for (std::size_t b = a + 1; b < j; ++b)
        rep.occupancy.push_back(at_key(occ[a].first,
                                       {.code = Code::kPointCollision,
                                        .edge = occ[a].second,
                                        .edge2 = occ[b].second}));
    i = j;
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> box_cells;
  for (std::uint32_t bi : fr.reg_boxes) {
    const NodeBox& b = geom.boxes[bi];
    for (std::uint32_t y = b.y; y < b.y + b.h; ++y)
      for (std::uint32_t x = b.x; x < b.x + b.w; ++x)
        box_cells.emplace_back(key3(x, y, b.layer), bi);
  }
  std::sort(box_cells.begin(), box_cells.end());
  for (const auto& [k, e] : occ) {
    auto it = std::lower_bound(
        box_cells.begin(), box_cells.end(), k,
        [](const auto& c, std::uint64_t key) { return c.first < key; });
    for (; it != box_cells.end() && it->first == k; ++it) {
      const NodeBox& b = geom.boxes[it->second];
      const Edge& ed = g.edge(e);
      if (b.node != ed.u && b.node != ed.v)
        rep.occupancy.push_back(
            at_key(k, {.code = Code::kTerminalTheft, .edge = e,
                       .node = b.node}));
    }
  }

  // Connectivity: full via columns, whatever the via rule.
  std::vector<std::vector<std::uint64_t>> pts(g.num_edges());
  for (const WireSeg& s : geom.segs) {
    if (s.edge >= g.num_edges() || !fr.edge_ok[s.edge]) continue;
    for (std::uint32_t y = s.y1; y <= s.y2; ++y)
      for (std::uint32_t x = s.x1; x <= s.x2; ++x)
        pts[s.edge].push_back(key3(x, y, s.layer));
  }
  for (const Via& v : geom.vias) {
    if (v.edge >= g.num_edges() || !fr.edge_ok[v.edge]) continue;
    for (std::uint32_t z = v.z1; z <= v.z2; ++z)
      pts[v.edge].push_back(key3(v.x, v.y, z));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (fr.edge_ok[e]) verify_edge(g, e, pts[e], fr.box_of, rep.connectivity);
  return rep;
}

}  // namespace mlvl::oracle
