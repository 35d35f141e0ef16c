// Point-hashing reference implementations, used only by tests.
//
// The production repair router answers its point questions from tiled bit
// planes, and the box-dependent lint rules from a `BoxIndex`. These copies
// keep the obvious route: the router hashes every occupied grid point and
// every box cell before it searches, and the two lint rules scan every box
// for every query. `test_repair_oracle` proves the production code
// byte-identical to them. They share no index code with production.
#pragma once

#include <vector>

#include "core/diagnostics.hpp"
#include "core/geometry.hpp"
#include "core/graph.hpp"
#include "robustness/repair.hpp"

namespace mlvl::oracle {

/// `robustness::repair_layout` with the point-hashing router.
robustness::RepairReport repair_points(const Graph& g, LayoutGeometry& geom,
                                       const robustness::RepairOptions& opt);

/// Raw findings (location fields only, as the rule bodies emit them) of
/// thompson-knock-knee and terminal-riser-offtrack by box scan.
std::vector<Diagnostic> knock_knee_scan(const LayoutGeometry& geom);
std::vector<Diagnostic> terminal_riser_scan(const LayoutGeometry& geom);

}  // namespace mlvl::oracle
