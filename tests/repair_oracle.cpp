// Point-hashing reference implementations (see repair_oracle.hpp).
#include "repair_oracle.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/checker.hpp"
#include "core/gridkey.hpp"

namespace mlvl::oracle {

using robustness::RepairOptions;
using robustness::RepairReport;

namespace {

using grid::key3;
using grid::key_x;
using grid::key_y;
using grid::key_z;

bool is_frame_code(Code c) {
  switch (c) {
    case Code::kCoordRange:
    case Code::kBoxCountMismatch:
    case Code::kBoxUnknownNode:
    case Code::kBoxDuplicate:
    case Code::kBoxOutOfBounds:
    case Code::kBoxLayerRange:
    case Code::kBoxOverlap:
      return true;
    default:
      return false;
  }
}

/// Maze router over the free cells of the grid. Occupancy reflects the via
/// rule: blocking vias exclude their whole column, transparent vias only
/// their endpoints (a wire may thread between them).
class Router {
 public:
  Router(const Graph& g, const LayoutGeometry& geom, const RepairOptions& opt)
      : g_(g), geom_(geom), opt_(opt), box_of_(g.num_nodes(), nullptr) {
    for (const WireSeg& s : geom.segs)
      for (std::uint32_t yy = s.y1; yy <= s.y2; ++yy)
        for (std::uint32_t xx = s.x1; xx <= s.x2; ++xx)
          occ_.insert(key3(xx, yy, s.layer));
    for (const Via& v : geom.vias) {
      if (opt.rule == ViaRule::kBlocking) {
        for (std::uint32_t zz = v.z1; zz <= v.z2; ++zz)
          occ_.insert(key3(v.x, v.y, zz));
      } else {
        occ_.insert(key3(v.x, v.y, v.z1));
        occ_.insert(key3(v.x, v.y, v.z2));
      }
    }
    for (const NodeBox& b : geom.boxes) {
      if (b.node < g.num_nodes() && !box_of_[b.node]) box_of_[b.node] = &b;
      for (std::uint32_t yy = b.y; yy < b.y + b.h; ++yy)
        for (std::uint32_t xx = b.x; xx < b.x + b.w; ++xx)
          box_cell_.emplace(key3(xx, yy, b.layer), b.node);
    }
  }

  /// Find a free path between the terminal boxes of `e` and append the
  /// resulting segments and vias to `out`. Returns false when no path
  /// exists within the search budget.
  bool route(EdgeId e, LayoutGeometry& out) {
    const Edge& ed = g_.edge(e);
    const NodeBox* bu = box_of_[ed.u];
    const NodeBox* bv = box_of_[ed.v];
    if (!bu || !bv) return false;

    std::unordered_map<std::uint64_t, std::uint64_t> parent;
    std::deque<std::uint64_t> queue;
    auto seed_box = [&](const NodeBox& b) {
      for (std::uint32_t yy = b.y; yy < b.y + b.h; ++yy)
        for (std::uint32_t xx = b.x; xx < b.x + b.w; ++xx) {
          const std::uint64_t k = key3(xx, yy, b.layer);
          if (occ_.count(k)) continue;
          if (parent.emplace(k, k).second) queue.push_back(k);
        }
    };
    auto in_box = [](const NodeBox& b, std::uint64_t k) {
      return key_z(k) == b.layer && b.contains(key_x(k), key_y(k));
    };
    seed_box(*bu);

    std::uint64_t goal = 0;
    bool found = false;
    while (!queue.empty() && !found) {
      if (parent.size() > opt_.max_search_cells) return false;
      const std::uint64_t k = queue.front();
      queue.pop_front();
      const std::uint32_t x = key_x(k), y = key_y(k), z = key_z(k);
      const std::uint64_t nbr[6] = {x > 0 ? key3(x - 1, y, z) : k,
                                    x + 1 < geom_.width ? key3(x + 1, y, z) : k,
                                    y > 0 ? key3(x, y - 1, z) : k,
                                    y + 1 < geom_.height ? key3(x, y + 1, z) : k,
                                    z > 1 ? key3(x, y, z - 1) : k,
                                    z < geom_.num_layers ? key3(x, y, z + 1) : k};
      for (std::uint64_t nk : nbr) {
        if (nk == k || parent.count(nk) || occ_.count(nk)) continue;
        auto bc = box_cell_.find(nk);
        if (bc != box_cell_.end() && bc->second != ed.u && bc->second != ed.v)
          continue;  // foreign box: terminal theft
        parent.emplace(nk, k);
        if (in_box(*bv, nk)) {
          goal = nk;
          found = true;
          break;
        }
        queue.push_back(nk);
      }
    }
    if (!found) return false;

    // Reconstruct source -> goal, then fold the walk into maximal straight
    // runs: same-layer runs become segments, z-runs become vias.
    std::vector<std::uint64_t> path;
    for (std::uint64_t k = goal;; k = parent[k]) {
      path.push_back(k);
      if (parent[k] == k) break;
    }
    std::reverse(path.begin(), path.end());
    emit(path, e, out);
    for (std::uint64_t k : path) occ_.insert(k);
    return true;
  }

 private:
  void emit(const std::vector<std::uint64_t>& path, EdgeId e,
            LayoutGeometry& out) {
    if (path.size() == 1) {  // degenerate stub (cannot happen between
      const std::uint64_t k = path[0];  // disjoint boxes, kept for safety)
      out.segs.push_back({key_x(k), key_y(k), key_x(k), key_y(k),
                          static_cast<std::uint16_t>(key_z(k)), e});
      return;
    }
    std::size_t i = 0;
    while (i + 1 < path.size()) {
      const bool zrun = key_z(path[i]) != key_z(path[i + 1]);
      std::size_t j = i + 1;
      auto same_kind = [&](std::size_t a, std::size_t b) {
        const bool z = key_z(path[a]) != key_z(path[b]);
        if (z != zrun) return false;
        if (zrun) return true;
        // Same-layer moves extend a run only while the direction holds.
        return (key_x(path[a]) == key_x(path[b])) ==
                   (key_x(path[i]) == key_x(path[j])) &&
               (key_y(path[a]) == key_y(path[b])) ==
                   (key_y(path[i]) == key_y(path[j]));
      };
      while (j + 1 < path.size() && same_kind(j, j + 1)) ++j;
      const std::uint64_t a = path[i], b = path[j];
      if (zrun) {
        out.vias.push_back({key_x(a), key_y(a),
                            static_cast<std::uint16_t>(
                                std::min(key_z(a), key_z(b))),
                            static_cast<std::uint16_t>(
                                std::max(key_z(a), key_z(b))),
                            e});
      } else {
        out.segs.push_back({std::min(key_x(a), key_x(b)),
                            std::min(key_y(a), key_y(b)),
                            std::max(key_x(a), key_x(b)),
                            std::max(key_y(a), key_y(b)),
                            static_cast<std::uint16_t>(key_z(a)), e});
      }
      i = j;
    }
  }

  const Graph& g_;
  const LayoutGeometry& geom_;
  const RepairOptions& opt_;
  std::unordered_set<std::uint64_t> occ_;
  std::unordered_map<std::uint64_t, NodeId> box_cell_;
  std::vector<const NodeBox*> box_of_;
};

/// Delete wire records the checker would reject outright (broken frame) and
/// collect the owning edges for re-routing.
void sanitize(const Graph& g, LayoutGeometry& geom, std::set<EdgeId>& rip) {
  auto bad_seg = [&](const WireSeg& s) {
    if (s.edge >= g.num_edges()) return true;  // ownerless: delete, no rip
    const bool broken = s.x1 > s.x2 || s.y1 > s.y2 ||
                        (s.x1 != s.x2 && s.y1 != s.y2) ||
                        s.x2 >= geom.width || s.y2 >= geom.height ||
                        s.layer < 1 || s.layer > geom.num_layers;
    if (broken) rip.insert(s.edge);
    return broken;
  };
  auto bad_via = [&](const Via& v) {
    if (v.edge >= g.num_edges()) return true;
    const bool broken = v.z1 < 1 || v.z2 > geom.num_layers || v.z1 > v.z2 ||
                        v.x >= geom.width || v.y >= geom.height;
    if (broken) rip.insert(v.edge);
    return broken;
  };
  std::erase_if(geom.segs, bad_seg);
  std::erase_if(geom.vias, bad_via);
}

}  // namespace

RepairReport repair_points(const Graph& g, LayoutGeometry& geom,
                           const RepairOptions& opt) {
  RepairReport rep;
  std::set<EdgeId> ever_failed;

  // Each pass re-reads the edited geometry through the same checker.
  Checker checker(g, geom, {.via_rule = opt.rule});

  for (std::uint32_t pass = 1; pass <= opt.max_passes; ++pass) {
    rep.passes = pass;
    DiagnosticSink sink(opt.max_diagnostics);
    checker.check(sink);
    if (sink.empty()) {
      rep.ok = true;
      rep.remaining.clear();
      return rep;
    }

    // Frame violations: re-routing cannot move node boxes or grow the grid.
    for (const Diagnostic& d : sink.diagnostics())
      if (is_frame_code(d.code)) rep.unrepairable.push_back(d);
    if (!rep.unrepairable.empty()) {
      rep.remaining = sink.diagnostics();
      return rep;
    }

    std::set<EdgeId> rip;
    sanitize(g, geom, rip);
    for (const Diagnostic& d : sink.diagnostics()) {
      if (d.edge != kNoId && d.edge < g.num_edges()) rip.insert(d.edge);
      if (d.edge2 != kNoId && d.edge2 < g.num_edges()) rip.insert(d.edge2);
    }
    // Edges the router already gave up on stay ripped-out; retrying them
    // each pass would loop without progress.
    for (EdgeId e : ever_failed) rip.erase(e);
    if (rip.empty()) {
      rep.remaining = sink.diagnostics();
      return rep;
    }

    for (EdgeId e : rip) {
      std::erase_if(geom.segs, [&](const WireSeg& s) { return s.edge == e; });
      std::erase_if(geom.vias, [&](const Via& v) { return v.edge == e; });
      rep.ripped.push_back(e);
    }

    Router router(g, geom, opt);
    for (EdgeId e : rip) {
      if (router.route(e, geom)) {
        rep.rerouted.push_back(e);
      } else {
        rep.failed.push_back(e);
        ever_failed.insert(e);
      }
    }
  }

  DiagnosticSink final_sink(opt.max_diagnostics);
  checker.check(final_sink);
  rep.remaining = final_sink.diagnostics();
  rep.ok = rep.remaining.empty();
  return rep;
}

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

}  // namespace

std::vector<Diagnostic> knock_knee_scan(const LayoutGeometry& geom) {
  std::vector<Diagnostic> out;
  if (geom.num_layers != 2) return out;
  auto in_some_box = [&](std::uint32_t x, std::uint32_t y) {
    return std::any_of(geom.boxes.begin(), geom.boxes.end(),
                       [&](const NodeBox& b) { return b.contains(x, y); });
  };
  struct Bend {
    std::uint64_t key;  ///< packed (x, y)
    EdgeId edge;
    std::uint16_t layer;
  };
  std::vector<Bend> bends;
  for (const WireSeg& s : geom.segs) {
    if (!is_run(s)) continue;
    for (auto [x, y] : {std::pair{s.x1, s.y1}, std::pair{s.x2, s.y2}}) {
      if (in_some_box(x, y)) continue;
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
    out.push_back(std::move(d));
    while (i + 1 < bends.size() && bends[i + 1].key == bends[i].key) ++i;
  }
  return out;
}

std::vector<Diagnostic> terminal_riser_scan(const LayoutGeometry& geom) {
  std::vector<Diagnostic> out;
  for (const Via& v : geom.vias) {
    if (v.z2 < v.z1) continue;
    for (const NodeBox& b : geom.boxes) {
      if (b.w <= 2 || b.h <= 2) continue;
      if (b.layer < v.z1 || b.layer > v.z2) continue;
      if (!b.contains(v.x, v.y)) continue;
      const bool interior = v.x > b.x && v.x + 1 < b.x + b.w && v.y > b.y &&
                            v.y + 1 < b.y + b.h;
      if (!interior) continue;
      Diagnostic d = at(v.x, v.y, b.layer);
      d.edge = v.edge;
      d.node = b.node;
      out.push_back(std::move(d));
      break;
    }
  }
  return out;
}

}  // namespace mlvl::oracle
