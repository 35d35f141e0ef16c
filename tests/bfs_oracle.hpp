// Plain tiled BFS repair router, used only by tests.
//
// The production router prunes its breadth-first search by the L1 distance
// to the target box (DESIGN.md §7.3) and claims the same paths. This copy
// keeps the unpruned multi-source BFS over the same 64 x 64 tile planes, so
// `test_repair_oracle` can prove the pruned router byte-identical to it on
// layouts far too large for the point-hashing router of repair_oracle.hpp.
#pragma once

#include <cstdint>

#include "core/geometry.hpp"
#include "core/graph.hpp"
#include "robustness/repair.hpp"

namespace mlvl::oracle {

/// `robustness::repair_layout` with the plain BFS router. Adds the free
/// cells its searches entered to `*cells_visited` when that is not null.
robustness::RepairReport repair_plain_bfs(
    const Graph& g, LayoutGeometry& geom, const robustness::RepairOptions& opt,
    std::uint64_t* cells_visited = nullptr);

}  // namespace mlvl::oracle
