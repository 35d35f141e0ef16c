#include "topology/folded_hypercube.hpp"

#include <stdexcept>

#include "core/splitmix.hpp"
#include "topology/hypercube.hpp"

namespace mlvl::topo {

Graph make_folded_hypercube(std::uint32_t n) {
  if (n < 2 || n > 20)
    throw std::invalid_argument("make_folded_hypercube: 2 <= n <= 20");
  Graph g = make_hypercube(n);
  const NodeId N = 1u << n;
  const NodeId mask = N - 1;
  for (NodeId u = 0; u < N; ++u) {
    const NodeId v = u ^ mask;
    if (u < v) g.add_edge(u, v);
  }
  return g;
}

Graph make_enhanced_cube(std::uint32_t n, std::uint64_t seed) {
  if (n < 2 || n > 20)
    throw std::invalid_argument("make_enhanced_cube: 2 <= n <= 20");
  Graph g = make_hypercube(n);
  const NodeId N = 1u << n;
  std::uint64_t state = seed;
  for (NodeId u = 0; u < N; ++u) {
    NodeId v = u;
    while (v == u) v = static_cast<NodeId>(splitmix64(state) % N);
    g.add_edge(u, v);
  }
  return g;
}

}  // namespace mlvl::topo
