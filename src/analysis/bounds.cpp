#include "analysis/bounds.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/splitmix.hpp"

namespace mlvl::analysis {
namespace {

std::uint64_t cut_size(const Graph& g, const std::vector<bool>& side) {
  std::uint64_t cut = 0;
  for (const Edge& e : g.edges())
    if (side[e.u] != side[e.v]) ++cut;
  return cut;
}

}  // namespace

std::uint64_t exact_bisection(const Graph& g) {
  const NodeId n = g.num_nodes();
  if (n < 2 || n > 24)
    throw std::invalid_argument("exact_bisection: 2 <= N <= 24 required");
  const NodeId half = n / 2;
  // Enumerate subsets of size `half` that contain node 0 (complement
  // symmetry); for odd n also the size-half subsets without node 0 matter,
  // but |side(0)| = ceil(n/2) covers them by complement.
  std::vector<NodeId> pick(half);
  std::vector<bool> side(n, false);
  std::uint64_t best = ~0ull;
  // Iterative combination enumeration over nodes 1..n-1 choosing half-1 (0 fixed in).
  std::vector<NodeId> idx(half ? half - 1 : 0);
  for (NodeId i = 0; i < idx.size(); ++i) idx[i] = i + 1;
  if (half == 0) return 0;
  while (true) {
    std::fill(side.begin(), side.end(), false);
    side[0] = true;
    for (NodeId i : idx) side[i] = true;
    best = std::min(best, cut_size(g, side));
    // next combination
    std::size_t k = idx.size();
    if (k == 0) break;
    std::size_t j = k;
    while (j > 0 && idx[j - 1] == n - k + (j - 1)) --j;
    if (j == 0) break;
    ++idx[j - 1];
    for (std::size_t t = j; t < k; ++t) idx[t] = idx[t - 1] + 1;
  }
  return best;
}

std::uint64_t heuristic_bisection(const Graph& g, std::uint64_t seed,
                                  std::uint32_t restarts) {
  const NodeId n = g.num_nodes();
  if (n < 2) return 0;
  std::uint64_t best = ~0ull;
  std::uint64_t state = seed;
  for (std::uint32_t r = 0; r < restarts; ++r) {
    // Random balanced start.
    std::vector<NodeId> order(n);
    for (NodeId i = 0; i < n; ++i) order[i] = i;
    for (NodeId i = n; i > 1; --i)
      std::swap(order[i - 1], order[splitmix64(state) % i]);
    std::vector<bool> side(n, false);
    for (NodeId i = 0; i < n / 2; ++i) side[order[i]] = true;
    // Pairwise swap descent.
    bool improved = true;
    std::uint64_t cur = cut_size(g, side);
    while (improved) {
      improved = false;
      for (NodeId a = 0; a < n && !improved; ++a) {
        if (!side[a]) continue;
        for (NodeId b = 0; b < n && !improved; ++b) {
          if (side[b]) continue;
          side[a] = false;
          side[b] = true;
          const std::uint64_t c = cut_size(g, side);
          if (c < cur) {
            cur = c;
            improved = true;
          } else {
            side[a] = true;
            side[b] = false;
          }
        }
      }
    }
    best = std::min(best, cur);
  }
  return best;
}

double area_lower_bound(std::uint64_t bisection, std::uint32_t L) {
  // A crossing wire occupies one (track, layer) slot on the cut line in
  // each direction, so W >= B/L and H >= B/L.
  const double side = double(bisection) / L;
  return side * side;
}

std::uint64_t hypercube_bisection(std::uint32_t n) { return 1ull << (n - 1); }

std::uint64_t complete_bisection(std::uint32_t n) {
  return std::uint64_t(n / 2) * ((n + 1) / 2);
}

std::uint64_t kary_bisection(std::uint32_t k, std::uint32_t n) {
  // Cut one dimension in half: each of the k^(n-1) rings crosses twice
  // (once for k = 2, where the ring is a single edge).
  std::uint64_t rings = 1;
  for (std::uint32_t i = 1; i < n; ++i) rings *= k;
  return rings * (k >= 3 ? 2 : 1);
}

std::uint64_t ghc_bisection(std::uint32_t r, std::uint32_t n) {
  // Cut one dimension's complete graph into halves: floor(r/2)*ceil(r/2)
  // links per group, r^(n-1) groups.
  std::uint64_t groups = 1;
  for (std::uint32_t i = 1; i < n; ++i) groups *= r;
  return groups * complete_bisection(r);
}

}  // namespace mlvl::analysis
