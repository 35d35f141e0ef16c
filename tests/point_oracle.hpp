// Point-expanding reference checker, used only by tests.
//
// The production `Checker` verifies records as intervals. This oracle proves
// it by the slow, obvious route: every claimed grid point becomes a sorted
// (key, edge) pair, collisions and terminal thefts are read off the sorted
// claims, and each edge's connectivity is a union-find over its own points.
// It shares no occupancy or connectivity code with the Checker.
#pragma once

#include <cstdint>
#include <vector>

#include "core/diagnostics.hpp"
#include "core/geometry.hpp"
#include "core/graph.hpp"
#include "core/multilayer.hpp"

namespace mlvl::oracle {

struct OracleReport {
  /// Layout-frame diagnostics in record order (the Checker's frame scan
  /// must match these byte for byte).
  std::vector<Diagnostic> frame;
  /// Collisions and thefts, unordered: every pair of distinct edges sharing
  /// a point yields one kPointCollision per shared point (edge < edge2),
  /// every distinct (point, edge) inside a foreign registered box one
  /// kTerminalTheft per such box.
  std::vector<Diagnostic> occupancy;
  /// Connectivity diagnostics in edge-id order, at most one per edge.
  std::vector<Diagnostic> connectivity;
  /// Distinct (grid point, edge) claims.
  std::uint64_t points = 0;

  [[nodiscard]] bool ok() const {
    return frame.empty() && occupancy.empty() && connectivity.empty();
  }
};

/// Check `geom` as a layout of `g` under `rule`, expanding every point.
/// Only for small grids: cost and memory are proportional to grid points.
OracleReport check_points(const Graph& g, const LayoutGeometry& geom,
                          ViaRule rule);

}  // namespace mlvl::oracle
