// Exact validation of multilayer layout geometry.
//
// The multilayer grid model (Sec. 2.2) requires the routed edges to be node-
// and edge-disjoint paths in the L-layer 3-D grid, with network nodes on
// layer 1. The checker enforces, on the grid points the records claim:
//   * no grid point is used by wires of two different edges (same-layer
//     crossings are therefore impossible; different-layer crossings never
//     share a point);
//   * vias occupy their whole z-column (ViaRule::kBlocking, the strict
//     model) or only their endpoints (kTransparent, stacked-via technology);
//   * wire points on layer 1 may only touch a node box that is an endpoint
//     of that edge (the terminal);
//   * node boxes are pairwise disjoint and within bounds;
//   * each edge's segments and vias form one connected path that touches
//     both endpoint boxes on layer 1.
//
// Thompson-model layouts (L = 2) are checked by the same rules: a crossing
// of a horizontal and a vertical wire is two different layers and therefore
// point-disjoint, while overlaps and knock-knees would collide.
//
// Record model (DESIGN.md §7.13): the checker never expands a wire into grid
// points. Runs are grouped by grid line and swept as intervals, vias are
// runs along z crossed with the wires of their y- and x-planes, H×V
// crossings come from an orthogonal-segment sweep per layer, and
// connectivity is a union-find over each edge's records. Work grows with
// records (plus reported overlaps), not with wire length or area. A pass is
// one serial sweep on the calling thread, and its diagnostic sequence
// depends only on the input.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/diagnostics.hpp"
#include "core/geometry.hpp"
#include "core/graph.hpp"
#include "core/multilayer.hpp"

namespace mlvl {

/// Tuning and semantics knobs for a `Checker`.
struct CheckOptions {
  /// Via occupancy model the layout must satisfy.
  ViaRule via_rule = ViaRule::kBlocking;
  /// Ignored: a pass always runs serially. Kept so that callers which
  /// still set it compile; nothing reads it.
  std::uint32_t threads = 1;
};

/// Outcome of one check() pass.
struct CheckReport {
  bool ok = false;
  std::string error;  ///< first violation, rendered; empty when ok
  /// Distinct occupied (grid point, edge) claims across the whole layout.
  std::uint64_t points = 0;
  double wall_ms = 0;  ///< wall time of this pass

  explicit operator bool() const { return ok; }
};

/// Record-level checker over one (graph, geometry) pair. The referenced
/// graph and geometry must outlive the Checker; the geometry may be edited
/// between passes (each pass reads it afresh). Not thread-safe itself (one
/// pass at a time); a pass runs serially on the calling thread, so
/// different Checkers may run side by side on different threads.
class Checker {
 public:
  Checker(const Graph& g, const LayoutGeometry& geom, CheckOptions opt = {});

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Full pass. Violations append to `sink` in deterministic order: the
  /// frame scan in record order, then occupancy violations sorted by
  /// (layer, y, x, edge, edge2), then connectivity in edge-id order.
  /// Producers stop once the sink is full.
  CheckReport check(DiagnosticSink& sink);
  /// First-failure convenience: capacity-1 sink, report carries the error.
  CheckReport check();

 private:
  const Graph& g_;
  const LayoutGeometry& geom_;
  CheckOptions opt_;
};

// Record predicates: the grid model's adjacency and connectivity, as the
// connectivity phase decides them. Fault injection uses them too.

/// A record as the box of grid points it covers, per axis (x, y, z); a via
/// covers its whole column. Empty (lo > hi on some axis) covers nothing.
struct RecordBox {
  std::array<std::uint32_t, 3> lo, hi;

  static RecordBox of(const WireSeg& s) {
    return {{s.x1, s.y1, s.layer}, {s.x2, s.y2, s.layer}};
  }
  static RecordBox of(const Via& v) {
    return {{v.x, v.y, v.z1}, {v.x, v.y, v.z2}};
  }
  [[nodiscard]] bool empty() const {
    return lo[0] > hi[0] || lo[1] > hi[1] || lo[2] > hi[2];
  }
};

/// Sum of the per-axis gaps between two non-empty records: 0 when they
/// share a point, 1 when they are 6-adjacent — either way one wire.
[[nodiscard]] std::int64_t gap(const RecordBox& a, const RecordBox& b);
/// True iff non-empty `r` covers a point of box `b` on the box's layer,
/// with the same (wrapping) bounds as NodeBox::contains.
[[nodiscard]] bool meets(const RecordBox& r, const NodeBox& b);
/// True iff the non-empty records form one 6-connected point set.
/// O(n log n) for n lines; a record that is no line joins all pairs.
[[nodiscard]] bool connected(std::span<const RecordBox> recs);

}  // namespace mlvl
