#include "layout/folded_hc_layout.hpp"

#include <stdexcept>

#include "core/splitmix.hpp"
#include "layout/hypercube_layout.hpp"

namespace mlvl::layout {

Orthogonal2Layer layout_folded_hypercube(std::uint32_t n) {
  Orthogonal2Layer o = layout_hypercube(n);
  const NodeId N = o.graph.num_nodes();
  const NodeId mask = N - 1;
  for (NodeId u = 0; u < N; ++u) {
    const NodeId v = u ^ mask;
    if (u < v) o.add_extra_edge(u, v);
  }
  return o;
}

Orthogonal2Layer layout_enhanced_cube(std::uint32_t n, std::uint64_t seed) {
  Orthogonal2Layer o = layout_hypercube(n);
  const NodeId N = o.graph.num_nodes();
  std::uint64_t state = seed;
  for (NodeId u = 0; u < N; ++u) {
    NodeId v = u;
    while (v == u) v = static_cast<NodeId>(splitmix64(state) % N);
    o.add_extra_edge(u, v);
  }
  return o;
}

}  // namespace mlvl::layout
