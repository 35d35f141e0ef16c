// Graceful degradation: rip-up and re-route for faulted layouts.
//
// Given a layout with violations, the repair pipeline (1) runs the checker
// in collect-all mode, (2) deletes wire records whose frame is broken
// (malformed, out-of-bounds, unknown edge, invalid via span), (3) rips up
// every edge implicated by a diagnostic — both parties of a point collision,
// the thief of a terminal, any disconnected / unrouted / stranded edge —
// and (4) re-routes each ripped edge through the free capacity of the 3-D
// grid with a maze router, then re-verifies. Violations of the layout frame
// itself (overlapping or out-of-bounds node boxes, bad dimensions) cannot be
// repaired by re-routing and are reported honestly as unrepairable, as are
// edges for which no free path exists.
//
// Each pass re-verifies the whole layout with the record-level `Checker`
// (DESIGN.md §7.13), and the router answers its free-cell and box questions
// from bit planes of the 64 x 64 tiles its searches touch, filled from the
// records crossing them (§7.3): neither costs in proportion to the area.
// Its BFS skips cells whose depth plus distance to the target exceeds a
// growing bound, and so finds the plain BFS's path without flooding the
// grid around the source.
#pragma once

#include <cstdint>
#include <vector>

#include "core/checker.hpp"
#include "core/diagnostics.hpp"
#include "core/geometry.hpp"
#include "core/graph.hpp"
#include "core/multilayer.hpp"

namespace mlvl::robustness {

struct RepairOptions {
  ViaRule rule = ViaRule::kBlocking;
  std::uint32_t max_passes = 3;          ///< rip-up/re-route/re-verify rounds
  std::size_t max_diagnostics = 512;     ///< per-pass collection budget
  /// Router give-up threshold: free cells one search try may enter before
  /// the edge is declared unroutable (bounds worst-case work on dense or
  /// adversarial layouts). A try enters no more cells than the plain BFS
  /// enters before it reaches the target, so every route the plain BFS
  /// finishes within this budget still finishes, by the same path; a
  /// route makes at most ceil(log2(width + height + layers)) + 1 tries.
  std::uint64_t max_search_cells = 4u << 20;
};

struct RepairReport {
  bool ok = false;                       ///< final layout is checker-clean
  std::uint32_t passes = 0;
  std::vector<EdgeId> ripped;            ///< edges torn out, in rip order
  std::vector<EdgeId> rerouted;          ///< successfully re-routed
  std::vector<EdgeId> failed;            ///< no free path found
  /// Frame violations re-routing cannot address (box overlap, bad bounds).
  std::vector<Diagnostic> unrepairable;
  /// Diagnostics still present after the last pass (empty when ok).
  std::vector<Diagnostic> remaining;
};

/// Repair `geom` in place. Never throws on bad geometry; the report says
/// exactly what was fixed and what was not.
///
/// `checked`, when given, must be what a collect-all check of `geom` as
/// passed (same via rule) left in a sink of `opt.max_diagnostics` capacity
/// that dropped nothing: pass 1 then uses it instead of checking again.
RepairReport repair_layout(const Graph& g, LayoutGeometry& geom,
                           const RepairOptions& opt = {},
                           const std::vector<Diagnostic>* checked = nullptr);

}  // namespace mlvl::robustness
