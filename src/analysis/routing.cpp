#include "analysis/routing.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "core/splitmix.hpp"
#include "obs/trace.hpp"

namespace mlvl::analysis {

std::vector<std::uint64_t> wire_distances(
    const Graph& g, std::span<const std::uint32_t> edge_length, NodeId src) {
  if (edge_length.size() != g.num_edges())
    throw std::invalid_argument("wire_distances: edge_length size mismatch");
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> dist(g.num_nodes(), kInf);
  using Item = std::pair<std::uint64_t, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[src] = 0;
  pq.emplace(0, src);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    const auto nbrs = g.neighbors(u);
    const auto eids = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::uint64_t nd = d + edge_length[eids[i]];
      if (nd < dist[nbrs[i]]) {
        dist[nbrs[i]] = nd;
        pq.emplace(nd, nbrs[i]);
      }
    }
  }
  return dist;
}

PathWireStats max_path_wire(const Graph& g,
                            std::span<const std::uint32_t> edge_length,
                            NodeId exact_limit, std::uint32_t samples,
                            std::uint64_t seed) {
  PathWireStats st;
  std::vector<NodeId> sources;
  if (g.num_nodes() <= exact_limit) {
    sources.resize(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) sources[u] = u;
  } else {
    st.exact = false;
    std::uint64_t state = seed;
    for (std::uint32_t i = 0; i < samples; ++i)
      sources.push_back(static_cast<NodeId>(splitmix64(state) % g.num_nodes()));
  }
  long double sum = 0;
  std::uint64_t count = 0;
  for (NodeId src : sources) {
    const auto dist = wire_distances(g, edge_length, src);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == src) continue;
      st.max_path_wire = std::max(st.max_path_wire, dist[v]);
      sum += dist[v];
      ++count;
    }
  }
  st.mean_path_wire = count ? double(sum / count) : 0.0;
  return st;
}

TrafficStats edge_traffic(const Graph& g,
                          std::span<const std::uint32_t> edge_length,
                          NodeId exact_limit, std::uint32_t samples,
                          std::uint64_t seed) {
  obs::Span span("traffic");
  if (edge_length.size() != g.num_edges())
    throw std::invalid_argument("edge_traffic: edge_length size mismatch");
  TrafficStats st;
  st.edge_load.assign(g.num_edges(), 0);
  std::vector<NodeId> sources;
  if (g.num_nodes() <= exact_limit) {
    sources.resize(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) sources[u] = u;
  } else {
    st.exact = false;
    std::uint64_t state = seed;
    for (std::uint32_t i = 0; i < samples; ++i)
      sources.push_back(static_cast<NodeId>(splitmix64(state) % g.num_nodes()));
  }
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  for (NodeId src : sources) {
    // Dijkstra with parent-edge tracking (ties broken by smaller edge id so
    // routing is deterministic).
    std::vector<std::uint64_t> dist(g.num_nodes(), kInf);
    std::vector<EdgeId> parent(g.num_nodes(), ~EdgeId{0});
    std::vector<NodeId> from(g.num_nodes(), src);
    using Item = std::pair<std::uint64_t, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[src] = 0;
    pq.emplace(0, src);
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d != dist[u]) continue;
      const auto nbrs = g.neighbors(u);
      const auto eids = g.incident_edges(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const std::uint64_t nd = d + edge_length[eids[i]];
        if (nd < dist[nbrs[i]] ||
            (nd == dist[nbrs[i]] && eids[i] < parent[nbrs[i]])) {
          dist[nbrs[i]] = nd;
          parent[nbrs[i]] = eids[i];
          from[nbrs[i]] = u;
          pq.emplace(nd, nbrs[i]);
        }
      }
    }
    // Walk every destination's path back to src.
    for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
      if (dst == src || dist[dst] == kInf) continue;
      NodeId v = dst;
      while (v != src) {
        ++st.edge_load[parent[v]];
        v = from[v];
      }
    }
  }
  std::uint64_t total = 0;
  for (std::uint64_t l : st.edge_load) {
    st.max_load = std::max(st.max_load, l);
    total += l;
  }
  st.mean_load = g.num_edges() ? double(total) / g.num_edges() : 0.0;
  return st;
}

std::vector<std::uint32_t> hop_distances(const Graph& g, NodeId src) {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(g.num_nodes(), kInf);
  std::queue<NodeId> q;
  dist[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kInf) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

}  // namespace mlvl::analysis
