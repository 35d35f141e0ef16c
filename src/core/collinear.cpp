#include "core/collinear.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "obs/trace.hpp"

namespace mlvl {
namespace {

/// Optimal track assignment for the complete graph K_r on nodes 0..r-1 placed
/// in identity order, keyed a*r+b. Track count is floor(r^2/4).
std::vector<std::uint32_t> complete_tracks(std::uint32_t r) {
  std::vector<Interval> ivs;
  ivs.reserve(static_cast<std::size_t>(r) * (r - 1) / 2);
  for (std::uint32_t a = 0; a < r; ++a)
    for (std::uint32_t b = a + 1; b < r; ++b)
      ivs.push_back(Interval{a, b, a * r + b});
  TrackAssignment ta = assign_tracks_left_edge(ivs);
  std::vector<std::uint32_t> table(static_cast<std::size_t>(r) * r, 0);
  for (std::size_t i = 0; i < ivs.size(); ++i) table[ivs[i].tag] = ta.track[i];
  return table;
}

std::vector<std::uint32_t> invert(const std::vector<NodeId>& order) {
  std::vector<std::uint32_t> pos(order.size());
  for (std::uint32_t p = 0; p < order.size(); ++p) pos[order[p]] = p;
  return pos;
}

}  // namespace

std::uint32_t CollinearLayout::max_span(const Graph& g) const {
  std::uint32_t best = 0;
  for (const Edge& e : g.edges()) {
    const std::uint32_t a = pos[e.u], b = pos[e.v];
    best = std::max(best, a > b ? a - b : b - a);
  }
  return best;
}

std::uint64_t CollinearLayout::total_span(const Graph& g) const {
  std::uint64_t sum = 0;
  for (const Edge& e : g.edges()) {
    const std::uint32_t a = pos[e.u], b = pos[e.v];
    sum += a > b ? a - b : b - a;
  }
  return sum;
}

bool CollinearLayout::is_valid(const Graph& g) const {
  if (pos.size() != g.num_nodes() || order.size() != g.num_nodes()) return false;
  if (edge_track.size() != g.num_edges()) return false;
  for (std::uint32_t p = 0; p < order.size(); ++p)
    if (order[p] >= g.num_nodes() || pos[order[p]] != p) return false;
  std::vector<Interval> ivs;
  ivs.reserve(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    auto [lo, hi] = std::minmax(pos[ed.u], pos[ed.v]);
    ivs.push_back(Interval{lo, hi, e});
  }
  TrackAssignment ta;
  ta.track = edge_track;
  ta.num_tracks = num_tracks;
  return assignment_is_valid(ivs, ta);
}

std::vector<NodeId> identity_order(NodeId n) {
  std::vector<NodeId> order(n);
  for (NodeId i = 0; i < n; ++i) order[i] = i;
  return order;
}

std::vector<std::uint32_t> folded_digit_positions(std::uint32_t k) {
  // Order along the line: 0, k-1, 1, k-2, 2, ... Every ring link
  // (c, c+1 mod k) then spans at most 2 pitches.
  std::vector<std::uint32_t> pos(k);
  for (std::uint32_t v = 0; v < k; ++v)
    pos[v] = (v < (k + 1) / 2) ? 2 * v : 2 * (k - 1 - v) + 1;
  return pos;
}

CollinearLayout collinear_greedy(const Graph& g, std::vector<NodeId> order) {
  obs::Span span("collinear");
  if (order.size() != g.num_nodes())
    throw std::invalid_argument("collinear_greedy: order size mismatch");
  CollinearLayout lay;
  lay.order = std::move(order);
  lay.pos = invert(lay.order);
  std::vector<Interval> ivs;
  ivs.reserve(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    auto [lo, hi] = std::minmax(lay.pos[ed.u], lay.pos[ed.v]);
    ivs.push_back(Interval{lo, hi, e});
  }
  TrackAssignment ta = assign_tracks_left_edge(std::move(ivs));
  lay.edge_track = std::move(ta.track);
  lay.num_tracks = ta.num_tracks;
  return lay;
}

CollinearResult collinear_ring(std::uint32_t k, Ordering ordering) {
  if (k < 2) throw std::invalid_argument("collinear_ring: k >= 2 required");
  Graph g(k);
  for (std::uint32_t i = 0; i + 1 < k; ++i) g.add_edge(i, i + 1);
  if (k >= 3) g.add_edge(0, k - 1);

  if (ordering == Ordering::kFolded) {
    std::vector<std::uint32_t> pos = folded_digit_positions(k);
    std::vector<NodeId> order(k);
    for (NodeId v = 0; v < k; ++v) order[pos[v]] = v;
    CollinearLayout lay = collinear_greedy(g, std::move(order));
    return {std::move(g), std::move(lay)};
  }

  CollinearLayout lay;
  lay.order = identity_order(k);
  lay.pos = lay.order;
  lay.edge_track.assign(g.num_edges(), 0);
  if (k >= 3) lay.edge_track.back() = 1;  // the wraparound wire
  lay.num_tracks = (k >= 3) ? 2 : 1;
  CollinearResult res{std::move(g), std::move(lay)};
  return res;
}

std::uint64_t kary_track_formula(std::uint32_t k, std::uint32_t n) {
  // f_k(n) = k f_k(n-1) + 2, f_k(1) = 2  =>  2 (k^n - 1)/(k - 1)   (k >= 3)
  // For k == 2 the ring degenerates to a single edge: f_2(n) = 2^n - 1.
  std::uint64_t f = (k >= 3) ? 2 : 1;
  for (std::uint32_t m = 1; m < n; ++m) f = f * k + ((k >= 3) ? 2 : 1);
  return n == 0 ? 0 : f;
}

CollinearResult collinear_kary(std::uint32_t k, std::uint32_t n,
                               Ordering ordering) {
  if (k < 2 || n < 1)
    throw std::invalid_argument("collinear_kary: k >= 2 and n >= 1 required");
  std::uint64_t size = 1;
  for (std::uint32_t t = 0; t < n; ++t) size *= k;
  if (size > (1u << 26))
    throw std::invalid_argument("collinear_kary: network too large");
  const auto N = static_cast<NodeId>(size);

  // Position weights: digit t has weight k^(n-1-t) (digit reversal), so the
  // outermost dimension interleaves adjacent copies as in the paper.
  std::vector<std::uint64_t> weight(n, 1);
  for (std::uint32_t t = 0; t + 1 < n; ++t)
    for (std::uint32_t s = t + 1; s < n; ++s) weight[t] *= k;

  const std::vector<std::uint32_t> fold = folded_digit_positions(k);
  const bool folded = ordering == Ordering::kFolded;

  Graph g(N);
  std::vector<std::uint32_t> digits(n);
  std::vector<NodeId> order(N);
  // Per-edge constructive track (natural ordering only).
  std::vector<std::uint32_t> tracks;
  // F[m] = f_k(m), the track count of the m innermost dimensions.
  std::vector<std::uint64_t> F(n + 1, 0);
  for (std::uint32_t m = 1; m <= n; ++m) F[m] = kary_track_formula(k, m);

  for (NodeId u = 0; u < N; ++u) {
    NodeId rem = u;
    std::uint64_t p = 0;
    for (std::uint32_t t = 0; t < n; ++t) {
      digits[t] = rem % k;
      rem /= k;
      p += (folded ? fold[digits[t]] : digits[t]) * weight[t];
    }
    order[p] = u;
    // Emit edges where this node is the lower endpoint in digit space.
    for (std::uint32_t t = 0; t < n; ++t) {
      const std::uint64_t step = [&] {
        std::uint64_t w = 1;
        for (std::uint32_t s = 0; s < t; ++s) w *= k;
        return w;
      }();
      std::uint64_t base = 0;
      for (std::uint32_t s = t + 1; s < n; ++s) base += digits[s] * F[s];
      if (digits[t] + 1 < k) {
        g.add_edge(u, static_cast<NodeId>(u + step));
        tracks.push_back(static_cast<std::uint32_t>(base + k * F[t] + 0));
      }
      if (digits[t] == 0 && k >= 3) {
        g.add_edge(u, static_cast<NodeId>(u + (k - 1) * step));
        tracks.push_back(static_cast<std::uint32_t>(base + k * F[t] + 1));
      }
    }
  }

  if (folded) {
    CollinearLayout lay = collinear_greedy(g, std::move(order));
    return {std::move(g), std::move(lay)};
  }
  CollinearLayout lay;
  lay.order = std::move(order);
  lay.pos = invert(lay.order);
  lay.edge_track = std::move(tracks);
  lay.num_tracks = static_cast<std::uint32_t>(F[n]);
  return {std::move(g), std::move(lay)};
}

std::uint64_t kary_mesh_track_formula(std::uint32_t k, std::uint32_t n) {
  // f(n) = k f(n-1) + 1, f(1) = 1  =>  (k^n - 1)/(k - 1).
  std::uint64_t f = 0;
  for (std::uint32_t m = 0; m < n; ++m) f = f * k + 1;
  return f;
}

CollinearResult collinear_kary_mesh(std::uint32_t k, std::uint32_t n) {
  if (k < 2 || n < 1)
    throw std::invalid_argument("collinear_kary_mesh: k >= 2, n >= 1 required");
  std::uint64_t size = 1;
  for (std::uint32_t t = 0; t < n; ++t) size *= k;
  if (size > (1u << 26))
    throw std::invalid_argument("collinear_kary_mesh: network too large");
  const auto N = static_cast<NodeId>(size);

  std::vector<std::uint64_t> weight(n, 1);
  for (std::uint32_t t = 0; t + 1 < n; ++t)
    for (std::uint32_t s = t + 1; s < n; ++s) weight[t] *= k;
  std::vector<std::uint64_t> F(n + 1, 0);
  for (std::uint32_t m = 1; m <= n; ++m) F[m] = kary_mesh_track_formula(k, m);

  Graph g(N);
  std::vector<std::uint32_t> digits(n);
  std::vector<NodeId> order(N);
  std::vector<std::uint32_t> tracks;
  for (NodeId u = 0; u < N; ++u) {
    NodeId rem = u;
    std::uint64_t p = 0;
    for (std::uint32_t t = 0; t < n; ++t) {
      digits[t] = rem % k;
      rem /= k;
      p += digits[t] * weight[t];
    }
    order[p] = u;
    std::uint64_t step = 1;
    for (std::uint32_t t = 0; t < n; ++t) {
      if (digits[t] + 1 < k) {
        std::uint64_t base = 0;
        for (std::uint32_t s = t + 1; s < n; ++s) base += digits[s] * F[s];
        g.add_edge(u, static_cast<NodeId>(u + step));
        tracks.push_back(static_cast<std::uint32_t>(base + k * F[t]));
      }
      step *= k;
    }
  }
  CollinearLayout lay;
  lay.order = std::move(order);
  lay.pos = invert(lay.order);
  lay.edge_track = std::move(tracks);
  lay.num_tracks = static_cast<std::uint32_t>(F[n]);
  return {std::move(g), std::move(lay)};
}

std::uint64_t complete_track_formula(std::uint64_t n) { return n * n / 4; }

CollinearResult collinear_complete(std::uint32_t n) {
  if (n < 2) throw std::invalid_argument("collinear_complete: n >= 2 required");
  Graph g(n);
  for (std::uint32_t a = 0; a < n; ++a)
    for (std::uint32_t b = a + 1; b < n; ++b) g.add_edge(a, b);
  CollinearLayout lay = collinear_greedy(g, identity_order(n));
  return {std::move(g), std::move(lay)};
}

std::uint64_t ghc_track_formula(const std::vector<std::uint32_t>& radices) {
  // f_r(m+1) = r_m f_r(m) + floor(r_m^2 / 4), f_r(0) = 0.
  std::uint64_t f = 0;
  for (std::uint32_t r : radices) f = r * f + (static_cast<std::uint64_t>(r) * r) / 4;
  return f;
}

CollinearResult collinear_ghc(const std::vector<std::uint32_t>& radices) {
  const auto n = static_cast<std::uint32_t>(radices.size());
  if (n == 0) throw std::invalid_argument("collinear_ghc: empty radix vector");
  std::uint64_t size = 1;
  for (std::uint32_t r : radices) {
    if (r < 2) throw std::invalid_argument("collinear_ghc: radix >= 2 required");
    size *= r;
  }
  if (size > (1u << 22))
    throw std::invalid_argument("collinear_ghc: network too large");
  const auto N = static_cast<NodeId>(size);

  std::vector<std::uint64_t> weight(n, 1);
  for (std::uint32_t t = 0; t < n; ++t)
    for (std::uint32_t s = t + 1; s < n; ++s) weight[t] *= radices[s];
  std::vector<std::uint64_t> step(n, 1);
  for (std::uint32_t t = 1; t < n; ++t) step[t] = step[t - 1] * radices[t - 1];
  std::vector<std::uint64_t> F(n + 1, 0);
  for (std::uint32_t m = 0; m < n; ++m)
    F[m + 1] = radices[m] * F[m] +
               (static_cast<std::uint64_t>(radices[m]) * radices[m]) / 4;
  // The K_r track table of each dimension, built once per distinct radix.
  std::map<std::uint32_t, std::vector<std::uint32_t>> tables;
  std::vector<const std::uint32_t*> ktab(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    auto [it, fresh] = tables.try_emplace(radices[t]);
    if (fresh) it->second = complete_tracks(radices[t]);
    ktab[t] = it->second.data();
  }

  Graph g(N);
  std::vector<std::uint32_t> digits(n);
  std::vector<NodeId> order(N);
  std::vector<std::uint32_t> tracks;
  for (NodeId u = 0; u < N; ++u) {
    NodeId rem = u;
    std::uint64_t p = 0;
    for (std::uint32_t t = 0; t < n; ++t) {
      digits[t] = rem % radices[t];
      rem /= radices[t];
      p += digits[t] * weight[t];
    }
    order[p] = u;
    for (std::uint32_t t = 0; t < n; ++t) {
      const std::uint32_t r = radices[t];
      std::uint64_t base = 0;
      for (std::uint32_t s = t + 1; s < n; ++s) base += digits[s] * F[s];
      for (std::uint32_t c = digits[t] + 1; c < r; ++c) {
        g.add_edge(u, static_cast<NodeId>(u + (c - digits[t]) * step[t]));
        tracks.push_back(static_cast<std::uint32_t>(
            base + r * F[t] + ktab[t][digits[t] * r + c]));
      }
    }
  }
  CollinearLayout lay;
  lay.order = std::move(order);
  lay.pos = invert(lay.order);
  lay.edge_track = std::move(tracks);
  lay.num_tracks = static_cast<std::uint32_t>(F[n]);
  return {std::move(g), std::move(lay)};
}

std::uint64_t hypercube_track_formula(std::uint32_t n) {
  return (2ull << n) / 3;  // floor(2 * 2^n / 3)
}

CollinearResult collinear_hypercube(std::uint32_t n) {
  if (n < 1 || n > 24)
    throw std::invalid_argument("collinear_hypercube: 1 <= n <= 24 required");
  obs::Span span("collinear");
  const NodeId N = 1u << n;
  const std::uint32_t P = n / 2;         // number of 2-cube (pair) levels
  const bool odd = (n % 2) != 0;

  // Within a 2-cube group, bit pair (b1 b0) is placed in the cycle order
  // 00, 01, 11, 10 (Fig. 4); q is the position of the pair in that order.
  constexpr std::uint32_t kGrayPos[4] = {0, 1, 3, 2};

  // F2[m] = f(2m) = 2 (4^m - 1) / 3, tracks of the m innermost pair levels.
  std::vector<std::uint64_t> F2(P + 1, 0);
  for (std::uint32_t m = 1; m <= P; ++m) F2[m] = 4 * F2[m - 1] + 2;

  // Position weight of pair p: the innermost pair is most significant; an odd
  // top dimension interleaves adjacent copies (weight 1) so pair weights are
  // doubled.
  std::vector<std::uint64_t> weight(P, 1);
  for (std::uint32_t p = 0; p < P; ++p) {
    for (std::uint32_t s = p + 1; s < P; ++s) weight[p] *= 4;
    if (odd) weight[p] *= 2;
  }

  auto pair_q = [&](NodeId u, std::uint32_t p) {
    return kGrayPos[(u >> (2 * p)) & 3u];
  };

  Graph g(N);
  std::vector<NodeId> order(N);
  std::vector<std::uint32_t> tracks;
  for (NodeId u = 0; u < N; ++u) {
    std::uint64_t posv = odd ? (u >> (n - 1)) : 0;
    for (std::uint32_t p = 0; p < P; ++p) posv += pair_q(u, p) * weight[p];
    order[posv] = u;

    for (std::uint32_t t = 0; t < n; ++t) {
      if ((u >> t) & 1u) continue;  // emit each edge from its lower endpoint
      const NodeId v = u | (1u << t);
      g.add_edge(u, v);
      if (odd && t == n - 1) {
        // Top unpaired dimension: copies interleave, one shared track.
        tracks.push_back(static_cast<std::uint32_t>(2 * F2[P]));
        continue;
      }
      const std::uint32_t p = t / 2;
      std::uint64_t track = 4 * F2[p];
      const std::uint32_t qa = pair_q(u, p), qb = pair_q(v, p);
      // C4 edges (0,1),(1,2),(2,3) share the inner track; (0,3) is the outer.
      if (std::min(qa, qb) == 0 && std::max(qa, qb) == 3) track += 1;
      for (std::uint32_t s = p + 1; s < P; ++s) track += pair_q(u, s) * F2[s];
      // Odd n: the two top-level copies interleave and keep separate tracks.
      if (odd) track += (u >> (n - 1)) * F2[P];
      tracks.push_back(static_cast<std::uint32_t>(track));
    }
  }
  CollinearLayout lay;
  lay.order = std::move(order);
  lay.pos = invert(lay.order);
  lay.edge_track = std::move(tracks);
  lay.num_tracks =
      static_cast<std::uint32_t>(odd ? 2 * F2[P] + 1 : F2[P]);
  return {std::move(g), std::move(lay)};
}

}  // namespace mlvl
