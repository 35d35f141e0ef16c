#include "robustness/fault_injector.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/checker.hpp"
#include "core/geometry_index.hpp"
#include "core/splitmix.hpp"

namespace mlvl::robustness {
namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// The layout's wire records grouped by edge id, by one counting sort per
/// inject call: record r < segs.size() is segment r, the rest are the vias
/// in order. Ids past the graph's edges share one last group. The operators
/// state their preconditions on these records with the checker's own
/// predicates (gap, meets, connected).
class EdgeRecords {
 public:
  EdgeRecords(const Graph& g, const LayoutGeometry& geom)
      : geom_(geom),
        first_(g.num_edges() + 2, 0),
        ids_(geom.segs.size() + geom.vias.size()) {
    for (std::uint32_t r = 0; r < ids_.size(); ++r)
      ++first_[group(edge(r)) + 1];
    std::partial_sum(first_.begin(), first_.end(), first_.begin());
    std::vector<std::uint32_t> fill(first_);
    for (std::uint32_t r = 0; r < ids_.size(); ++r)
      ids_[fill[group(edge(r))]++] = r;
  }
  /// Whether edge `e` of the graph has records, covering points or not.
  [[nodiscard]] bool routed(EdgeId e) const { return !of(e).empty(); }
  /// The records of edge `e` but record `skip` that cover a point (one
  /// that covers none touches nothing), into `out`.
  std::vector<RecordBox>& rest(EdgeId e, std::uint32_t skip,
                               std::vector<RecordBox>& out) const {
    out.clear();
    const std::size_t ns = geom_.segs.size();
    for (std::uint32_t r : of(e)) {
      const RecordBox b = r < ns ? RecordBox::of(geom_.segs[r])
                                 : RecordBox::of(geom_.vias[r - ns]);
      if (r != skip && edge(r) == e && !b.empty()) out.push_back(b);
    }
    return out;
  }

 private:
  [[nodiscard]] EdgeId edge(std::uint32_t r) const {
    return r < geom_.segs.size() ? geom_.segs[r].edge
                                 : geom_.vias[r - geom_.segs.size()].edge;
  }
  [[nodiscard]] std::size_t group(EdgeId e) const {
    return std::min<std::size_t>(e, first_.size() - 2);
  }
  [[nodiscard]] std::span<const std::uint32_t> of(EdgeId e) const {
    return std::span(ids_).subspan(first_[group(e)],
                                   first_[group(e) + 1] - first_[group(e)]);
  }

  const LayoutGeometry& geom_;
  std::vector<std::uint32_t> first_;  ///< per group, into ids_
  std::vector<std::uint32_t> ids_;    ///< record ids, grouped by edge
};

/// True when `r` covers a point within `reach` of some record of `recs`:
/// 0 asks for a shared point, 1 also takes a 6-adjacent one.
bool near(const RecordBox& r, std::span<const RecordBox> recs,
          std::int64_t reach) {
  return !r.empty() &&
         std::any_of(recs.begin(), recs.end(),
                     [&](const RecordBox& q) { return gap(r, q) <= reach; });
}

bool meets_any(std::span<const RecordBox> recs, const NodeBox& b) {
  return std::any_of(recs.begin(), recs.end(),
                     [&](const RecordBox& r) { return meets(r, b); });
}

/// Boxes stabbed along one axis: each item sits in the O(log n) nodes of a
/// segment tree that cover its [lo, hi] range on that axis exactly, and
/// each node holds its items' (key, x-range, owner) entries in one array,
/// sorted by key, then x.
class Stabber {
 public:
  struct Entry {
    std::uint32_t key, x1, x2 = 0;
    std::int64_t owner = 0;   ///< edge id, or -1 for a node box
    std::uint32_t reach = 0;  ///< max x2 over this key's entries so far
    bool operator<(const Entry& o) const {
      return std::pair(key, x1) < std::pair(o.key, o.x1);
    }
  };
  struct Item {
    std::uint64_t lo, hi;  ///< range on the stabbed axis
    Entry entry;
  };

  explicit Stabber(const std::vector<Item>& items) {
    for (const Item& it : items) {
      bounds_.push_back(it.lo);
      bounds_.push_back(it.hi + 1);
    }
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
    leaves_ = std::bit_ceil(std::max<std::size_t>(bounds_.size(), 1));
    auto leaf = [&](std::uint64_t v) {
      return leaves_ + (std::lower_bound(bounds_.begin(), bounds_.end(), v) -
                        bounds_.begin());
    };
    // Count each node's entries, then fill its slice of one array.
    auto place = [&](auto visit) {
      for (const Item& it : items)
        for (std::size_t l = leaf(it.lo), h = leaf(it.hi + 1); l < h;
             l >>= 1, h >>= 1) {
          if (l & 1) visit(l++, it.entry);
          if (h & 1) visit(--h, it.entry);
        }
    };
    first_.assign(2 * leaves_ + 1, 0);
    place([&](std::size_t n, const Entry&) { ++first_[n + 1]; });
    std::partial_sum(first_.begin(), first_.end(), first_.begin());
    entries_.resize(first_.back());
    std::vector<std::uint32_t> fill(first_);
    place([&](std::size_t n, const Entry& e) { entries_[fill[n]++] = e; });
    for (std::size_t n = 0; n + 1 < first_.size(); ++n) {
      const auto b = entries_.begin() + first_[n];
      const auto e = entries_.begin() + first_[n + 1];
      std::sort(b, e);
      for (auto it = b; it != e; ++it)
        it->reach = std::max(it->x2, it != b && it[-1].key == it->key
                                         ? it[-1].reach : 0);
    }
  }

  /// True when an item whose range holds `at`, with key `key` and an
  /// x-range meeting [x1, x2], has an owner other than `own`.
  [[nodiscard]] bool hit(std::uint32_t at, std::uint32_t key,
                         std::uint32_t x1, std::uint32_t x2,
                         EdgeId own) const {
    const auto leaf = std::upper_bound(bounds_.begin(), bounds_.end(), at);
    if (x1 > x2 || leaf == bounds_.begin() || leaf == bounds_.end())
      return false;
    auto foreign = [own](const Entry& e) { return e.owner != own; };
    for (std::size_t n = leaves_ + (leaf - bounds_.begin()) - 1; n > 0;
         n >>= 1) {
      const auto end = entries_.begin() + first_[n + 1];
      const auto same =
          std::lower_bound(entries_.begin() + first_[n], end, Entry{key, 0});
      // Back from the last entry starting by x2, while some entry before
      // still reaches x1.
      for (auto it = std::upper_bound(same, end, Entry{key, x2});
           it != same && it[-1].reach >= x1;)
        if (--it; it->x2 >= x1 && foreign(*it)) return true;
    }
    return false;
  }

 private:
  std::vector<std::uint64_t> bounds_;  ///< leaf i: [bounds_[i], bounds_[i+1])
  std::size_t leaves_ = 1;
  std::vector<std::uint32_t> first_;  ///< per tree node, into entries_
  std::vector<Entry> entries_;
};

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

std::optional<InjectedFault> shift_segment(const Graph& g,
                                           LayoutGeometry& geom,
                                           std::uint64_t seed) {
  const EdgeRecords recs(g, geom);
  std::vector<RecordBox> rest;
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
      if (recs.rest(s.edge, i, rest).empty()) continue;
      if (near(RecordBox::of(moved), rest, 1))
        continue;  // still attached: disconnection not guaranteed
      s = moved;
      return made(FaultKind::kShiftSegmentOffTrack,
                  "seg " + std::to_string(i) + " of edge " +
                      std::to_string(s.edge) + " shifted off-track");
    }
  }
  return std::nullopt;
}

std::optional<InjectedFault> swap_segment_layer(const Graph& g,
                                                LayoutGeometry& geom,
                                                std::uint64_t seed) {
  const EdgeRecords recs(g, geom);
  std::vector<RecordBox> rest;
  Rotation rot(geom.segs.size(), seed);
  for (std::size_t i; rot.next(i);) {
    WireSeg& s = geom.segs[i];
    if (s.length() < 2) continue;
    for (int delta : {+2, -2, +1, -1}) {
      const int nl = static_cast<int>(s.layer) + delta;
      if (nl < 1 || nl > static_cast<int>(geom.num_layers)) continue;
      WireSeg moved = s;
      moved.layer = static_cast<std::uint16_t>(nl);
      if (recs.rest(s.edge, i, rest).empty()) continue;
      if (near(RecordBox::of(moved), rest, 1)) continue;
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
  const EdgeRecords recs(g, geom);
  std::vector<RecordBox> rest;
  Rotation rot(geom.segs.size(), seed);
  for (std::size_t i; rot.next(i);) {
    WireSeg& s = geom.segs[i];
    // The relabelled segment must still share a point with its old edge
    // (a via junction) so the two edge ids provably collide there.
    if (!near(RecordBox::of(s), recs.rest(s.edge, i, rest), 0)) continue;
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
      --s.y1;  // grows the run a row up instead: equally malformed
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
  const EdgeRecords recs(g, geom);
  const BoxIndex boxes(geom.boxes);
  std::vector<RecordBox> rest;
  Rotation rot(geom.vias.size(), seed);
  for (std::size_t i; rot.next(i);) {
    const Via& v = geom.vias[i];
    if (v.edge >= g.num_edges()) continue;
    const Edge& ed = g.edge(v.edge);
    const std::uint32_t t = boxes.find(v.x, v.y, [&](std::uint32_t b) {
      const NodeBox& box = geom.boxes[b];
      return (box.node == ed.u || box.node == ed.v) && box.layer >= v.z1 &&
             box.layer <= v.z2;
    });
    if (t == BoxIndex::kNone) continue;
    const NodeBox* term = &geom.boxes[t];
    recs.rest(v.edge, geom.segs.size() + i, rest);
    if (rest.empty() || !connected(rest) || meets_any(rest, *term)) continue;
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
  const std::size_t i = Rotation(geom.vias.size(), seed).start;
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
  const EdgeRecords recs(g, geom);
  const BoxIndex boxes(geom.boxes);
  std::vector<RecordBox> rest;
  Rotation rot(geom.vias.size(), seed);
  for (std::size_t i; rot.next(i);) {
    Via& v = geom.vias[i];
    if (v.z1 != 1 || v.z2 - v.z1 < 2) continue;
    // Which terminal box does the via's layer-1 point sit in?
    const Edge& ed = g.edge(v.edge);
    const std::uint32_t t = boxes.find(v.x, v.y, [&](std::uint32_t b) {
      const NodeBox& box = geom.boxes[b];
      return (box.node == ed.u || box.node == ed.v) && box.layer == 1;
    });
    if (t == BoxIndex::kNone) continue;
    const NodeBox* term = &geom.boxes[t];
    // After cutting off the layer-1 point: the wire must stay connected (else
    // the declared code would be kEdgeDisconnected) and nothing else of the
    // edge may still touch the box.
    Via cut = v;
    ++cut.z1;
    recs.rest(v.edge, geom.segs.size() + i, rest).push_back(RecordBox::of(cut));
    if (!connected(rest) || meets_any(rest, *term)) continue;
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
  const std::size_t i = Rotation(geom.vias.size(), seed).start;
  geom.vias[i].z1 = 0;  // below layer 1: z-range invalid
  return made(FaultKind::kInvertViaSpan,
              "via " + std::to_string(i) + " z1 zeroed");
}

std::optional<InjectedFault> steal_terminal(const Graph& g,
                                            LayoutGeometry& geom,
                                            std::uint64_t seed) {
  const EdgeRecords recs(g, geom);
  std::vector<RecordBox> rest;
  std::vector<EdgeId> inside;  // edges at the box's node with wire in it
  Rotation rot(geom.boxes.size(), seed);
  for (std::size_t i; rot.next(i);) {
    NodeBox& bi = geom.boxes[i];
    const NodeId a = bi.node;
    if (a >= g.num_nodes()) continue;
    inside.clear();
    for (EdgeId e : g.incident_edges(a))
      if (meets_any(recs.rest(e, kNone, rest), bi)) inside.push_back(e);
    if (inside.empty()) continue;
    for (std::size_t j = 0; j < geom.boxes.size(); ++j) {
      NodeBox& bj = geom.boxes[j];
      const NodeId b = bj.node;
      if (j == i || b == a) continue;
      // Some edge at `a` that does not also end at `b` must have wire inside
      // bi; after the swap that wire sits in a box labelled `b` — theft.
      if (std::none_of(inside.begin(), inside.end(), [&](EdgeId e) {
            return g.edge(e).u != b && g.edge(e).v != b;
          }))
        continue;
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
  const std::size_t i = Rotation(geom.boxes.size(), seed).start;
  geom.boxes.push_back(geom.boxes[i]);
  return made(FaultKind::kDuplicateNodeBox,
              "box of node " + std::to_string(geom.boxes[i].node) +
                  " duplicated");
}

std::optional<InjectedFault> push_box_out(const Graph&, LayoutGeometry& geom,
                                          std::uint64_t seed) {
  if (geom.boxes.empty()) return std::nullopt;
  const std::size_t i = Rotation(geom.boxes.size(), seed).start;
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
  const EdgeRecords recs(g, geom);
  Rotation rot(g.num_edges(), seed);
  for (std::size_t i; rot.next(i);) {
    const EdgeId e = static_cast<EdgeId>(i);
    if (!recs.routed(e)) continue;
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
  // checker-valid: the moved run must share no point with foreign geometry
  // or a node box, and the edge must stay one connected component that
  // still reaches both terminal boxes. The result breaks only the Sec. 2.4
  // layer discipline — Code::kLintLayerParity, which the Checker never emits.
  // What a run moved onto layer z, row y, would share a point with: the
  // segments and node boxes by rows, keyed by layer; the vias by layers,
  // keyed by row.
  const EdgeRecords recs(g, geom);
  std::vector<Stabber::Item> planar, columns;
  for (const WireSeg& s : geom.segs)
    if (const RecordBox r = RecordBox::of(s); !r.empty())
      planar.push_back({r.lo[1], r.hi[1], {s.layer, s.x1, s.x2, s.edge}});
  for (const NodeBox& b : geom.boxes)
    if (b.x < b.x + b.w && b.y < b.y + b.h)  // as NodeBox::contains wraps
      planar.push_back(
          {b.y, b.y + b.h - 1, {b.layer, b.x, b.x + b.w - 1, -1}});
  for (const Via& v : geom.vias)
    if (v.z1 <= v.z2) columns.push_back({v.z1, v.z2, {v.y, v.x, v.x, v.edge}});
  const Stabber by_row(planar), by_layer(columns);
  std::vector<std::pair<NodeId, std::uint32_t>> by_node;  // (node, box)
  for (std::uint32_t b = 0; b < geom.boxes.size(); ++b)
    by_node.emplace_back(geom.boxes[b].node, b);
  std::sort(by_node.begin(), by_node.end());
  std::vector<RecordBox> wire;
  Rotation rot(geom.segs.size(), seed);
  for (std::size_t i; rot.next(i);) {
    WireSeg& s = geom.segs[i];
    if (!s.horizontal() || s.x1 == s.x2 || s.layer % 2 == 0) continue;
    for (std::uint32_t l2 = 2; l2 <= geom.num_layers; l2 += 2) {
      if (by_row.hit(s.y1, l2, s.x1, s.x2, s.edge) ||
          by_layer.hit(l2, s.y1, s.x1, s.x2, s.edge))
        continue;
      RecordBox run = RecordBox::of(s);
      run.lo[2] = run.hi[2] = l2;
      recs.rest(s.edge, i, wire);
      if (!run.empty()) wire.push_back(run);
      // Both terminal boxes must still be reached on their active layer.
      const Edge& ed = g.edge(s.edge);
      auto reached = [&](NodeId end) {
        for (auto it = std::lower_bound(by_node.begin(), by_node.end(),
                                        std::pair(end, 0u));
             it != by_node.end() && it->first == end; ++it)
          if (meets_any(wire, geom.boxes[it->second])) return true;
        return false;
      };
      if (!connected(wire) || !reached(ed.u) || !reached(ed.v)) continue;
      const std::uint16_t old_layer = s.layer;
      s.layer = static_cast<std::uint16_t>(l2);
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
