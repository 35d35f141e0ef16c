// The plain tiled BFS repair router (see bfs_oracle.hpp).
#include "bfs_oracle.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/checker.hpp"
#include "core/geometry_index.hpp"
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
///
/// The grid is cut into tiles of 64 x 64 cells over all layers. Each record
/// is bucketed under the tiles it crosses once per pass; a tile gets its
/// planes the first time a search touches it, filled from its bucket:
///   * wire plane: one word per (layer, row), a bit per occupied cell;
///   * closed plane: wire | foreign box, repainted for each route, plus the
///     cells that route has seen;
///   * state bytes: the move that entered each cell the route has seen.
/// So a neighbour test is one bit test, and entering a cell one bit set and
/// one byte store. Routed paths are claimed in the wire planes, so later
/// routes see them. Memory follows the tiles the searches touch, never the
/// grid.
class Router {
 public:
  Router(const Graph& g, LayoutGeometry& geom, const RepairOptions& opt)
      : g_(g), geom_(geom), opt_(opt), rows_(kTile * geom.num_layers),
        box_of_(g.num_nodes(), nullptr) {
    for (const NodeBox& b : geom.boxes)
      if (b.node < g.num_nodes() && !box_of_[b.node]) box_of_[b.node] = &b;

    // Bucket each record under every tile it crosses, boxes first and each
    // kind in record order: a counting sort over the tiles.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> refs;  // tile, ref
    auto add = [&](std::uint32_t x1, std::uint32_t y1, std::uint32_t x2,
                   std::uint32_t y2, std::uint32_t ref) {
      for (std::uint32_t ty = y1 >> kTileBits; ty <= y2 >> kTileBits; ++ty)
        for (std::uint32_t tx = x1 >> kTileBits; tx <= x2 >> kTileBits; ++tx) {
          const std::uint32_t t = tile_id(tx, ty);
          ++tiles_[t].end;
          if (ref >= kBox) ++tiles_[t].boxes;
          refs.emplace_back(t, ref);
        }
    };
    // Routing runs on frame-valid layouts only, where every box lies inside
    // the grid on a real layer; anything else holds no cell a search visits.
    for (std::uint32_t i = 0; i < geom.boxes.size(); ++i) {
      const NodeBox& b = geom.boxes[i];
      if (b.w > 0 && b.h > 0 && std::uint64_t{b.x} + b.w <= geom.width &&
          std::uint64_t{b.y} + b.h <= geom.height && b.layer >= 1 &&
          b.layer <= geom.num_layers)
        add(b.x, b.y, b.x + b.w - 1, b.y + b.h - 1, kBox | i);
    }
    for (std::uint32_t i = 0; i < geom.segs.size(); ++i) {
      const WireSeg& s = geom.segs[i];
      add(s.x1, s.y1, s.x2, s.y2, kSeg | i);
    }
    for (std::uint32_t i = 0; i < geom.vias.size(); ++i)
      add(geom.vias[i].x, geom.vias[i].y, geom.vias[i].x, geom.vias[i].y,
          kVia | i);
    std::uint32_t at = 0;
    for (Tile& t : tiles_) {
      const std::uint32_t n = t.end;
      t.begin = t.end = at;  // end: fill cursor
      t.boxes += at;
      at += n;
    }
    refs_.resize(at);
    for (const auto& [t, ref] : refs) refs_[tiles_[t].end++] = ref;
  }

  /// Find a free path between the terminal boxes of `e` and append the
  /// resulting segments and vias to the geometry. Returns false when no
  /// path exists within the search budget.
  bool route(EdgeId e) {
    const Edge& ed = g_.edge(e);
    const NodeBox* bu = box_of_[ed.u];
    const NodeBox* bv = box_of_[ed.v];
    if (!bu || !bv) return false;
    ++route_;
    u_ = ed.u;
    v_ = ed.v;

    // The closed plane holds every cell seen: entered ones, with the move
    // that reached them in the state bytes (a seed: kSeed), and blocked
    // ones, so neither is tested again. Only entered cells count against
    // the search budget. Seeds test only the wire plane.
    queue_.clear();
    std::uint64_t entered = 0;
    for (std::uint32_t yy = bu->y; yy < bu->y + bu->h; ++yy)
      for (std::uint32_t xx = bu->x; xx < bu->x + bu->w; ++xx) {
        const View t = ready(xx, yy);
        const std::uint32_t r = row(bu->layer, yy);
        const std::uint64_t bit = std::uint64_t{1} << (xx & kTileMask);
        if (t.wire[r] & bit) continue;
        t.closed[r] |= bit;
        t.state[r * kTile + (xx & kTileMask)] = kSeed;
        ++entered;
        queue_.push_back(key3(xx, yy, bu->layer));
      }
    auto in_box = [](const NodeBox& b, std::uint64_t k) {
      return key_z(k) == b.layer && b.contains(key_x(k), key_y(k));
    };

    std::uint64_t goal = 0;
    bool found = false;
    View cur{};
    std::uint32_t cx = UINT32_MAX, cy = UINT32_MAX;  // a cell of `cur`
    for (std::size_t head = 0; head < queue_.size() && !found; ++head) {
      if (entered > opt_.max_search_cells) break;
      const std::uint64_t k = queue_[head];
      const std::uint32_t x = key_x(k), y = key_y(k), z = key_z(k);
      if (((x ^ cx) | (y ^ cy)) >> kTileBits) {
        cur = ready(x, y);
        cx = x;
        cy = y;
      }
      const bool open[6] = {x > 0, x + 1 < geom_.width, y > 0,
                            y + 1 < geom_.height, z > 1, z < geom_.num_layers};
      for (std::uint8_t m = 0; m < 6; ++m) {
        if (!open[m]) continue;
        const std::uint64_t nk = k + kStep[m];
        const std::uint32_t nx = key_x(nk), ny = key_y(nk);
        const View t =
            ((nx ^ x) | (ny ^ y)) >> kTileBits ? ready(nx, ny) : cur;
        const std::uint32_t r = row(key_z(nk), ny);
        const std::uint64_t bit = std::uint64_t{1} << (nx & kTileMask);
        if (t.closed[r] & bit) continue;
        t.closed[r] |= bit;
        t.state[r * kTile + (nx & kTileMask)] = m;
        ++entered;
        queue_.push_back(nk);
        if (in_box(*bv, nk)) {
          goal = nk;
          found = true;
          break;
        }
      }
    }
    cells_visited_ += entered;
    if (!found) return false;

    // Reconstruct source -> goal, claiming each cell in its wire plane so
    // later routes see the path (its vias thus block their whole column,
    // whatever the rule). Then fold the walk into maximal straight runs:
    // same-layer runs become segments, z-runs become vias.
    std::vector<std::uint64_t> path;
    for (std::uint64_t k = goal;;) {
      path.push_back(k);
      const std::uint32_t x = key_x(k), y = key_y(k);
      const View t = ready(x, y);
      const std::uint32_t r = row(key_z(k), y);
      t.wire[r] |= std::uint64_t{1} << (x & kTileMask);
      const std::uint8_t m = t.state[r * kTile + (x & kTileMask)];
      if (m == kSeed) break;
      k -= kStep[m];
    }
    std::reverse(path.begin(), path.end());
    emit(path, e);
    return true;
  }

  /// Free cells entered by every search so far.
  [[nodiscard]] std::uint64_t cells_visited() const { return cells_visited_; }

 private:
  static constexpr std::uint32_t kTileBits = 6, kTile = 1u << kTileBits,
                                 kTileMask = kTile - 1;
  /// A bucket entry: record kind in the top two bits, index below.
  static constexpr std::uint32_t kSeg = 0, kVia = 1u << 30, kBox = 2u << 30,
                                 kIndex = kVia - 1;
  /// Key offsets of the six moves, in search order: -x, +x, -y, +y, -z, +z
  /// (unsigned wrap-around subtracts).
  static constexpr std::uint64_t kStep[6] = {
      ~std::uint64_t{0}, 1, ~std::uint64_t{0} << grid::kCoordBits,
      std::uint64_t{1} << grid::kCoordBits,
      ~std::uint64_t{0} << 2 * grid::kCoordBits,
      std::uint64_t{1} << 2 * grid::kCoordBits};
  static constexpr std::uint8_t kSeed = 6;

  struct Tile {
    /// refs_[begin, boxes) are its boxes, refs_[boxes, end) its wires.
    std::uint32_t begin = 0, boxes = 0, end = 0;
    std::uint32_t stamp = 0;  ///< route the closed plane is painted for
    std::unique_ptr<std::uint64_t[]> bits;  ///< wire plane, closed plane
    std::unique_ptr<std::uint8_t[]> state;  ///< one byte per cell
  };
  /// A ready tile's planes (stable while tiles_ grows).
  struct View {
    std::uint64_t* wire = nullptr;
    std::uint64_t* closed = nullptr;
    std::uint8_t* state = nullptr;
  };

  [[nodiscard]] static std::uint32_t row(std::uint32_t z, std::uint32_t y) {
    return (z - 1) * kTile + (y & kTileMask);
  }
  /// Bits lo..hi of a word.
  [[nodiscard]] static std::uint64_t span(std::uint32_t lo, std::uint32_t hi) {
    return (~std::uint64_t{0} << lo) & (~std::uint64_t{0} >> (kTileMask - hi));
  }

  /// Index of tile (tx, ty), made empty if new.
  std::uint32_t tile_id(std::uint32_t tx, std::uint32_t ty) {
    const auto next = static_cast<std::uint32_t>(tiles_.size());
    const std::uint32_t t =
        dir_.try_emplace(std::uint64_t{tx} << 32 | ty, next);
    if (t == next) tiles_.emplace_back();
    return t;
  }
  /// The tile holding (x, y), filled, its closed plane painted for this
  /// route.
  View ready(std::uint32_t x, std::uint32_t y) {
    Tile& t = tiles_[tile_id(x >> kTileBits, y >> kTileBits)];
    const std::uint32_t x0 = x & ~kTileMask, y0 = y & ~kTileMask;
    if (!t.bits) {
      t.bits = std::make_unique<std::uint64_t[]>(2 * std::size_t{rows_});
      t.state = std::make_unique_for_overwrite<std::uint8_t[]>(
          std::size_t{rows_} * kTile);
      for (std::uint32_t i = t.boxes; i < t.end; ++i)
        paint_wire(t.bits.get(), x0, y0, refs_[i]);
    }
    const View v{t.bits.get(), t.bits.get() + rows_, t.state.get()};
    if (t.stamp == route_) return v;
    t.stamp = route_;
    // Foreign boxes from the highest index down, so the lowest-index box
    // holding a cell decides whether it is foreign.
    std::fill_n(v.closed, rows_, 0);
    for (std::uint32_t i = t.boxes; i-- > t.begin;) {
      const NodeBox& b = geom_.boxes[refs_[i] & kIndex];
      const std::uint64_t cols = span(
          std::max(b.x, x0) - x0, std::min(b.x + b.w - 1, x0 + kTileMask) - x0);
      const bool foreign = b.node != u_ && b.node != v_;
      for (std::uint32_t yy = std::max(b.y, y0),
                         y1 = std::min(b.y + b.h - 1, y0 + kTileMask);
           yy <= y1; ++yy) {
        std::uint64_t& w = v.closed[row(b.layer, yy)];
        w = foreign ? w | cols : w & ~cols;
      }
    }
    for (std::uint32_t r = 0; r < rows_; ++r) v.closed[r] |= v.wire[r];
    return v;
  }

  /// Set the cells a wire record claims in the wire plane of the tile at
  /// (x0, y0).
  void paint_wire(std::uint64_t* wire, std::uint32_t x0, std::uint32_t y0,
                  std::uint32_t ref) const {
    const std::uint32_t i = ref & kIndex;
    if (ref < kVia) {
      const WireSeg& s = geom_.segs[i];
      if (s.y1 == s.y2) {
        wire[row(s.layer, s.y1)] |= span(std::max(s.x1, x0) - x0,
                                        std::min(s.x2, x0 + kTileMask) - x0);
        return;
      }
      const std::uint64_t bit = std::uint64_t{1} << (s.x1 - x0);
      for (std::uint32_t yy = std::max(s.y1, y0),
                         y1 = std::min(s.y2, y0 + kTileMask);
           yy <= y1; ++yy)
        wire[row(s.layer, yy)] |= bit;
      return;
    }
    const Via& v = geom_.vias[i];
    const std::uint64_t bit = std::uint64_t{1} << (v.x - x0);
    if (opt_.rule == ViaRule::kBlocking) {
      for (std::uint32_t z = v.z1; z <= v.z2; ++z) wire[row(z, v.y)] |= bit;
    } else {
      wire[row(v.z1, v.y)] |= bit;
      wire[row(v.z2, v.y)] |= bit;
    }
  }

  void emit(const std::vector<std::uint64_t>& path, EdgeId e) {
    LayoutGeometry& out = geom_;
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
  LayoutGeometry& geom_;
  const RepairOptions& opt_;
  const std::uint32_t rows_;  ///< plane words per tile: 64 x layers
  std::vector<const NodeBox*> box_of_;
  FlatMap dir_;  ///< (tx, ty) -> tiles_ index
  std::vector<Tile> tiles_;
  std::vector<std::uint32_t> refs_;   ///< the buckets, tile by tile
  std::vector<std::uint64_t> queue_;  ///< BFS queue, reused by every route
  std::uint32_t route_ = 0;           ///< routes started
  NodeId u_ = 0, v_ = 0;              ///< the current route's terminals
  std::uint64_t cells_visited_ = 0;
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

RepairReport repair_plain_bfs(const Graph& g, LayoutGeometry& geom,
                              const RepairOptions& opt,
                              std::uint64_t* cells_visited) {
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

    // One scan per record kind (sanitize left only owned records).
    std::vector<bool> ripping(g.num_edges());
    for (EdgeId e : rip) ripping[e] = true;
    std::erase_if(geom.segs, [&](const WireSeg& s) { return ripping[s.edge]; });
    std::erase_if(geom.vias, [&](const Via& v) { return ripping[v.edge]; });
    rep.ripped.insert(rep.ripped.end(), rip.begin(), rip.end());

    Router router(g, geom, opt);
    for (EdgeId e : rip) {
      if (router.route(e)) {
        rep.rerouted.push_back(e);
      } else {
        rep.failed.push_back(e);
        ever_failed.insert(e);
      }
    }
    if (cells_visited) *cells_visited += router.cells_visited();
  }

  DiagnosticSink final_sink(opt.max_diagnostics);
  checker.check(final_sink);
  rep.remaining = final_sink.diagnostics();
  rep.ok = rep.remaining.empty();
  return rep;
}

}  // namespace mlvl::oracle
