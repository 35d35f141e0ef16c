#include "robustness/repair.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <set>
#include <vector>

#include "core/geometry_index.hpp"
#include "core/gridkey.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlvl::robustness {
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

/// Cells one route has seen: an open-addressing table (linear probing, at
/// most half full) of one word per slot holding the packed cell key (56
/// bits, core/gridkey.hpp), a 3-bit state and a 5-bit generation.
/// clear() bumps the generation, so a table reused across routes re-zeroes
/// its storage only once every 31 routes. Memory follows the cells a search
/// touches, never the grid.
class CellTable {
 public:
  explicit CellTable(std::size_t expected) {
    words_.resize(std::bit_ceil(2 * expected));
    shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(words_.size()));
  }

  /// Insert `key` with `state` unless present; true when inserted.
  bool insert(std::uint64_t key, std::uint8_t state) {
    if (2 * (size_ + 1) > words_.size()) grow();
    for (std::size_t i = slot_of(key);; i = (i + 1) & (words_.size() - 1)) {
      const std::uint64_t w = words_[i];
      if ((w >> kGenShift) != gen_) {
        words_[i] = key | std::uint64_t{state} << kStateShift |
                    std::uint64_t{gen_} << kGenShift;
        ++size_;
        return true;
      }
      if ((w & kKeyMask) == key) return false;
    }
  }
  /// State of a present `key`.
  [[nodiscard]] std::uint8_t state(std::uint64_t key) const {
    std::size_t i = slot_of(key);
    while ((words_[i] & kKeyMask) != key) i = (i + 1) & (words_.size() - 1);
    return static_cast<std::uint8_t>(words_[i] >> kStateShift & 7);
  }
  void clear() {
    size_ = 0;
    if (++gen_ < 32) return;
    std::fill(words_.begin(), words_.end(), 0);  // generation 0: empty
    gen_ = 1;
  }

 private:
  static constexpr std::uint32_t kStateShift = 56, kGenShift = 59;
  static constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << 56) - 1;
  static_assert(2 * grid::kCoordBits + 16 <= kStateShift,
                "a packed cell key (x, y, 16-bit layer) fits below the state");

  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void grow() {
    std::vector<std::uint64_t> old(2 * words_.size());
    old.swap(words_);
    --shift_;
    const std::size_t mask = words_.size() - 1;
    for (const std::uint64_t w : old) {
      if ((w >> kGenShift) != gen_) continue;
      std::size_t i = slot_of(w & kKeyMask);
      while ((words_[i] >> kGenShift) == gen_) i = (i + 1) & mask;
      words_[i] = w;
    }
  }

  std::vector<std::uint64_t> words_;
  std::uint32_t shift_ = 64;
  std::uint32_t gen_ = 1;
  std::size_t size_ = 0;
};

/// Maze router over the free cells of the grid. Occupancy reflects the via
/// rule: blocking vias exclude their whole column, transparent vias only
/// their endpoints (a wire may thread between them). Free-cell and
/// foreign-box questions go to a record-level GeometryIndex; routed paths
/// are claimed in it, so later routes see them.
class Router {
 public:
  Router(const Graph& g, const LayoutGeometry& geom, const RepairOptions& opt)
      : g_(g), geom_(geom), opt_(opt), index_(geom, opt.rule),
        box_of_(g.num_nodes(), nullptr) {
    for (const NodeBox& b : geom.boxes)
      if (b.node < g.num_nodes() && !box_of_[b.node]) box_of_[b.node] = &b;
  }

  /// Find a free path between the terminal boxes of `e` and append the
  /// resulting segments and vias to `out`. Returns false when no path
  /// exists within the search budget.
  bool route(EdgeId e, LayoutGeometry& out) {
    const Edge& ed = g_.edge(e);
    const NodeBox* bu = box_of_[ed.u];
    const NodeBox* bv = box_of_[ed.v];
    if (!bu || !bv) return false;

    // parent_ holds every cell seen: entered ones with the move that
    // reached them (a seed: kSeed), and those found blocked, so neither is
    // tested again. Only entered cells count against the search budget.
    parent_.clear();
    queue_.clear();
    std::uint64_t entered = 0;
    for (std::uint32_t yy = bu->y; yy < bu->y + bu->h; ++yy)
      for (std::uint32_t xx = bu->x; xx < bu->x + bu->w; ++xx) {
        if (index_.occupied(xx, yy, bu->layer)) continue;
        parent_.insert(key3(xx, yy, bu->layer), kSeed);
        ++entered;
        queue_.push_back(key3(xx, yy, bu->layer));
      }
    auto in_box = [](const NodeBox& b, std::uint64_t k) {
      return key_z(k) == b.layer && b.contains(key_x(k), key_y(k));
    };
    // Foreign box: entering it would steal another node's terminal.
    auto blocked = [&](std::uint64_t k) {
      const std::uint32_t x = key_x(k), y = key_y(k), z = key_z(k);
      if (index_.occupied(x, y, z)) return true;
      const std::uint32_t box = index_.boxes().at(x, y, z);
      if (box == BoxIndex::kNone) return false;
      const NodeId owner = geom_.boxes[box].node;
      return owner != ed.u && owner != ed.v;
    };

    std::uint64_t goal = 0;
    bool found = false;
    for (std::size_t head = 0; head < queue_.size() && !found; ++head) {
      if (entered > opt_.max_search_cells) break;
      const std::uint64_t k = queue_[head];
      const std::uint32_t x = key_x(k), y = key_y(k), z = key_z(k);
      const bool open[6] = {x > 0, x + 1 < geom_.width, y > 0,
                            y + 1 < geom_.height, z > 1, z < geom_.num_layers};
      for (std::uint8_t m = 0; m < 6; ++m) {
        if (!open[m]) continue;
        const std::uint64_t nk = k + kStep[m];
        if (!parent_.insert(nk, m) || blocked(nk)) continue;
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

    // Reconstruct source -> goal, then fold the walk into maximal straight
    // runs: same-layer runs become segments, z-runs become vias.
    std::vector<std::uint64_t> path;
    for (std::uint64_t k = goal;;) {
      path.push_back(k);
      const std::uint8_t m = parent_.state(k);
      if (m == kSeed) break;
      k -= kStep[m];
    }
    std::reverse(path.begin(), path.end());
    const std::size_t segs0 = out.segs.size(), vias0 = out.vias.size();
    emit(path, e, out);
    // The path's runs and z-runs cover exactly its cells; its vias block
    // their whole column whatever the rule.
    for (std::size_t i = segs0; i < out.segs.size(); ++i)
      index_.add_seg(out.segs[i]);
    for (std::size_t i = vias0; i < out.vias.size(); ++i) {
      const Via& v = out.vias[i];
      index_.add_column(v.x, v.y, v.z1, v.z2);
    }
    return true;
  }

  [[nodiscard]] const GeometryIndex& index() const { return index_; }
  /// Free cells entered by every search so far.
  [[nodiscard]] std::uint64_t cells_visited() const { return cells_visited_; }

 private:
  /// Key offsets of the six moves, in search order: -x, +x, -y, +y, -z, +z
  /// (unsigned wrap-around subtracts).
  static constexpr std::uint64_t kStep[6] = {
      ~std::uint64_t{0}, 1, ~std::uint64_t{0} << grid::kCoordBits,
      std::uint64_t{1} << grid::kCoordBits,
      ~std::uint64_t{0} << 2 * grid::kCoordBits,
      std::uint64_t{1} << 2 * grid::kCoordBits};
  static constexpr std::uint8_t kSeed = 6;

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
  GeometryIndex index_;
  std::vector<const NodeBox*> box_of_;
  CellTable parent_{1u << 12};        ///< reused by every route
  std::vector<std::uint64_t> queue_;  ///< BFS queue, reused likewise
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

RepairReport repair_layout(const Graph& g, LayoutGeometry& geom,
                           const RepairOptions& opt) {
  obs::Span span("repair");
  RepairReport rep;
  std::set<EdgeId> ever_failed;

  // Each pass re-reads the edited geometry through the same checker.
  Checker checker(g, geom,
                  {.via_rule = opt.rule, .threads = opt.check_threads});

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
      obs::counter_add("repair.ripups");
    }

    std::optional<Router> router;
    {
      obs::Span index_span("repair.index");
      index_span.arg("records", geom.boxes.size() + geom.segs.size() +
                                    geom.vias.size());
      router.emplace(g, geom, opt);
    }
    {
      obs::Span route_span("repair.route");
      for (EdgeId e : rip) {
        if (router->route(e, geom)) {
          rep.rerouted.push_back(e);
          obs::counter_add("repair.rerouted");
        } else {
          rep.failed.push_back(e);
          ever_failed.insert(e);
        }
      }
      route_span.arg("routes", rip.size());
      route_span.arg("cells_visited", router->cells_visited());
    }
    obs::counter_add("repair.cells_visited", router->cells_visited());
    obs::counter_add("repair.index.built", router->index().built());
  }

  DiagnosticSink final_sink(opt.max_diagnostics);
  checker.check(final_sink);
  rep.remaining = final_sink.diagnostics();
  rep.ok = rep.remaining.empty();
  return rep;
}

}  // namespace mlvl::robustness
