// Folded hypercubes and enhanced cubes — Sec. 5.3.
#pragma once

#include <cstdint>

#include "core/graph.hpp"

namespace mlvl::topo {

/// Hypercube plus one diameter link per node (u <-> bitwise complement of u).
[[nodiscard]] Graph make_folded_hypercube(std::uint32_t n);

/// Hypercube plus one extra link per node leading to a (seeded) random node.
/// The paper's enhanced cube uses random targets [26]; SplitMix64 keeps runs
/// reproducible. Self-targets are re-rolled.
[[nodiscard]] Graph make_enhanced_cube(std::uint32_t n, std::uint64_t seed);

}  // namespace mlvl::topo
