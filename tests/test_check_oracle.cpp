// Differential proof of the record-level Checker against the point-expanding
// oracle (point_oracle.hpp): across the fault matrix on four families and
// three layer counts, and across thousands of random small geometries —
// malformed, out-of-range, overlapping and foreign records included — both
// must agree on the verdict, the frame and connectivity diagnostics (byte
// for byte, in order), the set of occupancy detections, and the distinct
// claim count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/checker.hpp"
#include "core/gridkey.hpp"
#include "core/multilayer.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/ghc_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"
#include "point_oracle.hpp"
#include "robustness/fault_injector.hpp"

namespace mlvl {
namespace {

constexpr std::size_t kUnbounded = std::size_t{1} << 24;

bool is_occupancy(Code c) {
  return c == Code::kPointCollision || c == Code::kTerminalTheft;
}
bool is_connectivity(Code c) {
  return c == Code::kEdgeUnrouted || c == Code::kEdgeDisconnected ||
         c == Code::kEdgeMissesTerminal;
}

using Detection = std::tuple<Code, std::uint32_t, std::uint32_t, std::uint32_t>;

/// (code, {edge, edge2}, node): where a violation is reported and how often
/// are free; what is detected is not.
Detection detection(const Diagnostic& d) {
  return {d.code, std::min(d.edge, d.edge2), std::max(d.edge, d.edge2),
          d.node};
}

struct Split {
  std::vector<std::string> frame, connectivity;
  std::set<Detection> occupancy;
};

Split split(const std::vector<Diagnostic>& ds) {
  Split s;
  for (const Diagnostic& d : ds) {
    if (is_occupancy(d.code))
      s.occupancy.insert(detection(d));
    else if (is_connectivity(d.code))
      s.connectivity.push_back(d.to_string());
    else
      s.frame.push_back(d.to_string());
  }
  return s;
}

/// Checker against the oracle on one geometry. Returns true when everything
/// agrees; failures are reported with `ctx`.
bool agree(const Graph& g, const LayoutGeometry& geom, ViaRule rule,
           const std::string& ctx) {
  DiagnosticSink sink(kUnbounded);
  const CheckReport rep =
      Checker(g, geom, {.via_rule = rule}).check(sink);
  const oracle::OracleReport want = oracle::check_points(g, geom, rule);

  const Split got = split(sink.diagnostics());
  std::vector<Diagnostic> want_all = want.frame;
  want_all.insert(want_all.end(), want.occupancy.begin(), want.occupancy.end());
  want_all.insert(want_all.end(), want.connectivity.begin(),
                  want.connectivity.end());
  const Split exp = split(want_all);

  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (!cond) {
      ADD_FAILURE() << ctx << ": " << what << " differs\n  checker: "
                    << sink.summary();
      ok = false;
    }
  };
  check(rep.ok == want.ok(), "verdict");
  check(got.frame == exp.frame, "frame diagnostics");
  check(got.connectivity == exp.connectivity, "connectivity diagnostics");
  check(got.occupancy == exp.occupancy, "occupancy detection set");
  check(rep.points == want.points, "points");
  return ok;
}

// ---- Fault matrix --------------------------------------------------------

struct Family {
  std::string name;
  Orthogonal2Layer o;
};

std::vector<Family>& families() {
  static std::vector<Family> out = [] {
    std::vector<Family> f;
    f.push_back({"hypercube(4)", layout::layout_hypercube(4)});
    f.push_back({"kary(3,2)", layout::layout_kary(3, 2)});
    f.push_back({"ghc(3,2)", layout::layout_ghc(3, 2)});
    f.push_back({"ccc(3)", layout::layout_ccc(3)});
    return f;
  }();
  return out;
}

constexpr std::uint64_t kSeeds[] = {1, 2, 17, 99};
constexpr std::uint32_t kLayers[] = {2, 3, 8};
constexpr ViaRule kRules[] = {ViaRule::kBlocking, ViaRule::kTransparent};

TEST(CheckOracle, PristineLayoutsAgree) {
  for (const Family& f : families())
    for (std::uint32_t L : kLayers) {
      const MultilayerLayout ml = realize(f.o, {.L = L});
      for (ViaRule rule : kRules)
        agree(f.o.graph, ml.geom, rule,
              f.name + " L=" + std::to_string(L) + " pristine");
      EXPECT_TRUE(
          Checker(f.o.graph, ml.geom, {.via_rule = ml.required_rule})
              .check()
              .ok);
    }
}

TEST(CheckOracle, FaultMatrixAgrees) {
  int applied = 0, disagreements = 0;
  for (robustness::FaultKind k : robustness::all_faults()) {
    if (robustness::is_text_fault(k)) continue;
    for (const Family& f : families())
      for (std::uint32_t L : kLayers) {
        const MultilayerLayout ml = realize(f.o, {.L = L});
        for (std::uint64_t seed : kSeeds) {
          LayoutGeometry geom = ml.geom;
          const auto fault = robustness::inject(k, f.o.graph, geom, seed);
          if (!fault) continue;
          ++applied;
          for (ViaRule rule : kRules) {
            const std::string ctx =
                f.name + " L=" + std::to_string(L) + " " +
                robustness::fault_name(k) + " seed " + std::to_string(seed) +
                (rule == ViaRule::kBlocking ? " blocking" : " transparent");
            if (!agree(f.o.graph, geom, rule, ctx)) ++disagreements;
          }
          // The declared code still fires under the layout's own rule.
          if (!robustness::is_lint_fault(k)) {
            DiagnosticSink sink(kUnbounded);
            Checker(f.o.graph, geom, {.via_rule = ml.required_rule})
                .check(sink);
            EXPECT_TRUE(sink.has(fault->expected))
                << f.name << " L=" << L << " " << fault->note << ": "
                << sink.summary();
          }
        }
      }
  }
  EXPECT_GT(applied, 200);
  EXPECT_EQ(disagreements, 0);
}

// ---- Fuzzer ----------------------------------------------------------------

/// Random small geometry: up to 16x16x4, boxes that may overlap, duplicate,
/// misname or leave the grid, and per edge either scattered records or a
/// random walk of runs and vias (connected, with occasional one-step gaps
/// that only 6-adjacency bridges), salted with malformed, out-of-range and
/// foreign records. Some edges get dozens of records so the sweep-based
/// join path runs, not just the all-pairs one.
struct Fuzzed {
  Graph g{0};
  LayoutGeometry geom;
};

Fuzzed fuzz(std::uint64_t seed, std::uint32_t max_side = 16,
            std::uint32_t max_layers = 4) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint32_t lo, std::uint32_t hi) {  // inclusive
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };
  auto chance = [&](std::uint32_t pct) { return pick(1, 100) <= pct; };

  Fuzzed f;
  const std::uint32_t nodes = pick(2, 6);
  f.g = Graph(nodes);
  const std::uint32_t edges = pick(1, 6);
  for (std::uint32_t e = 0; e < edges; ++e) {
    const std::uint32_t u = pick(0, nodes - 1);
    std::uint32_t v = pick(0, nodes - 1);
    if (v == u) v = (u + 1) % nodes;
    f.g.add_edge(u, v);
  }
  LayoutGeometry& geom = f.geom;
  geom.width = pick(1, max_side);
  geom.height = pick(1, max_side);
  geom.num_layers = static_cast<std::uint16_t>(pick(1, max_layers));
  const std::uint32_t W = geom.width, H = geom.height, L = geom.num_layers;
  auto coord = [&](std::uint32_t n) {
    return chance(3) ? n + pick(0, 2) : pick(0, n - 1);
  };
  auto layer = [&] {
    return static_cast<std::uint16_t>(chance(3) ? pick(0, L + 1) : pick(1, L));
  };

  for (std::uint32_t n = 0; n < nodes; ++n) {
    if (chance(5)) continue;  // missing box
    NodeBox b;
    b.node = chance(3) ? pick(0, nodes + 1) : n;
    b.x = coord(W);
    b.y = coord(H);
    b.w = chance(2) ? 0 : pick(1, 3);
    b.h = chance(2) ? 0 : pick(1, 3);
    b.layer = chance(85) ? std::uint16_t{1} : layer();
    geom.boxes.push_back(b);
    if (chance(4)) geom.boxes.push_back(b);  // duplicate
  }

  auto random_seg = [&](EdgeId e) {
    WireSeg s;
    s.edge = e;
    s.layer = layer();
    s.x1 = coord(W);
    s.y1 = coord(H);
    if (chance(50)) {
      s.x2 = std::min(W - 1, s.x1 + pick(0, 6));
      s.y2 = s.y1;
    } else {
      s.x2 = s.x1;
      s.y2 = std::min(H - 1, s.y1 + pick(0, 6));
    }
    if (chance(3)) std::swap(s.x1, s.x2);  // possibly inverted
    if (chance(3)) s.y2 = std::min(H - 1, s.y2 + 1);  // possibly diagonal
    return s;
  };
  auto random_via = [&](EdgeId e) {
    Via v;
    v.edge = e;
    v.x = coord(W);
    v.y = coord(H);
    v.z1 = static_cast<std::uint16_t>(pick(chance(3) ? 0 : 1, L));
    v.z2 = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(v.z1 + pick(0, 2), L + (chance(3) ? 1 : 0)));
    if (chance(3)) std::swap(v.z1, v.z2);
    return v;
  };

  for (EdgeId e = 0; e < edges; ++e) {
    if (chance(5)) continue;  // unrouted
    const bool big = chance(15);
    if (chance(40)) {
      const std::uint32_t n = big ? pick(17, 48) : pick(1, 6);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (chance(70))
          geom.segs.push_back(random_seg(e));
        else
          geom.vias.push_back(random_via(e));
      }
      continue;
    }
    // Random walk: each step a run or a via from the current point; now and
    // then the next step starts one cell away instead of on the end point.
    std::uint32_t x = pick(0, W - 1), y = pick(0, H - 1), z = pick(1, L);
    const std::uint32_t steps = big ? pick(17, 48) : pick(1, 8);
    for (std::uint32_t i = 0; i < steps; ++i) {
      if (chance(10)) {
        const std::uint32_t axis = pick(0, 2);
        if (axis == 0 && x + 1 < W) ++x;
        if (axis == 1 && y + 1 < H) ++y;
        if (axis == 2 && z + 1 <= L) ++z;
      }
      const std::uint32_t kind = L > 1 ? pick(0, 2) : pick(0, 1);
      if (kind == 2) {
        std::uint32_t z2 = pick(1, L);
        if (z2 == z) z2 = z == 1 ? 2 : z - 1;
        geom.vias.push_back({x, y, static_cast<std::uint16_t>(std::min(z, z2)),
                             static_cast<std::uint16_t>(std::max(z, z2)), e});
        z = z2;
      } else if (kind == 0) {
        const std::uint32_t nx = pick(0, W - 1);
        geom.segs.push_back({std::min(x, nx), y, std::max(x, nx), y,
                             static_cast<std::uint16_t>(z), e});
        x = nx;
      } else {
        const std::uint32_t ny = pick(0, H - 1);
        geom.segs.push_back({x, std::min(y, ny), x, std::max(y, ny),
                             static_cast<std::uint16_t>(z), e});
        y = ny;
      }
    }
  }
  // Foreign records name edges outside the graph.
  if (chance(5)) geom.segs.push_back(random_seg(edges + pick(0, 2)));
  if (chance(5)) geom.vias.push_back(random_via(edges + pick(0, 2)));
  std::shuffle(geom.segs.begin(), geom.segs.end(), rng);
  std::shuffle(geom.vias.begin(), geom.vias.end(), rng);
  return f;
}

TEST(CheckOracle, FuzzedGeometriesAgree) {
  constexpr std::uint64_t kCases = 6000;
  int disagreements = 0, valid = 0, big = 0;
  for (std::uint64_t seed = 0; seed < kCases; ++seed) {
    const Fuzzed f = fuzz(seed);
    for (ViaRule rule : kRules)
      if (!agree(f.g, f.geom, rule, "fuzz seed " + std::to_string(seed)))
        ++disagreements;
    if (Checker(f.g, f.geom).check().ok) ++valid;
    std::vector<std::uint32_t> per_edge(f.g.num_edges() + 3, 0);
    for (const WireSeg& s : f.geom.segs) ++per_edge[s.edge];
    for (const Via& v : f.geom.vias) ++per_edge[v.edge];
    if (*std::max_element(per_edge.begin(), per_edge.end()) > 16) ++big;
    if (disagreements > 5) break;  // enough to debug from
  }
  EXPECT_EQ(disagreements, 0);
  // The generator must reach valid layouts and the large-edge join path.
  EXPECT_GT(valid, 0);
  EXPECT_GT(big, 100);
}

/// Narrow grids with up to 12 layers: wire-via crossing planes then hold
/// more than a handful of wiring layers, which the checker sweeps with its
/// bitset path instead of merging line by line.
TEST(CheckOracle, FuzzedTallStacksAgree) {
  int disagreements = 0;
  for (std::uint64_t seed = 0; seed < 1500; ++seed) {
    const Fuzzed f = fuzz(1000000 + seed, 8, 12);
    for (ViaRule rule : kRules)
      if (!agree(f.g, f.geom, rule, "tall fuzz seed " + std::to_string(seed)))
        ++disagreements;
    if (disagreements > 5) break;
  }
  EXPECT_EQ(disagreements, 0);
}

/// Moves a fuzzed geometry by (dx, dy, dz), growing the grid to match, so
/// its records sit at wide coordinates but keep their short lengths.
void shift(Fuzzed& f, std::uint32_t dx, std::uint32_t dy, std::uint16_t dz) {
  LayoutGeometry& geom = f.geom;
  geom.width += dx;
  geom.height += dy;
  geom.num_layers = static_cast<std::uint16_t>(geom.num_layers + dz);
  for (NodeBox& b : geom.boxes) {
    b.x += dx;
    b.y += dy;
    b.layer = static_cast<std::uint16_t>(b.layer + dz);
  }
  for (WireSeg& s : geom.segs) {
    s.x1 += dx;
    s.x2 += dx;
    s.y1 += dy;
    s.y2 += dy;
    s.layer = static_cast<std::uint16_t>(s.layer + dz);
  }
  for (Via& v : geom.vias) {
    v.x += dx;
    v.y += dy;
    v.z1 = static_cast<std::uint16_t>(v.z1 + dz);
    v.z2 = static_cast<std::uint16_t>(v.z2 + dz);
  }
}

/// The fuzzed geometries moved past 2^11 and 2^16 and up to kCoordMax on
/// each axis, and their layers past 2^11 and near the 16-bit limit: every
/// key field then needs more bits than one radix digit holds, and the last
/// row and column of the widest grid lie at kCoordMax - 1.
TEST(CheckOracle, FuzzedWideCoordinatesAgree) {
  int disagreements = 0;
  for (std::uint64_t seed = 0; seed < 3000; ++seed) {
    Fuzzed f = fuzz(2000000 + seed);
    std::mt19937_64 rng(seed);
    auto offset = [&](std::uint32_t side) {
      const std::uint32_t picks[] = {0, (1u << 11) - 3, (1u << 16) - 5,
                                     grid::kCoordMax - side};
      return picks[rng() % 4];
    };
    const std::uint32_t dx = offset(f.geom.width);
    const std::uint32_t dy = offset(f.geom.height);
    const std::uint16_t dzs[] = {0, (1u << 11) - 2, 65000};
    shift(f, dx, dy, dzs[rng() % 3]);
    for (ViaRule rule : kRules)
      if (!agree(f.g, f.geom, rule, "wide fuzz seed " + std::to_string(seed)))
        ++disagreements;
    if (disagreements > 5) break;
  }
  EXPECT_EQ(disagreements, 0);
}

TEST(CheckOracle, CoordinateRangeGateAgrees) {
  Graph g(2);
  g.add_edge(0, 1);
  LayoutGeometry geom;
  geom.width = grid::kCoordMax + 1;
  geom.height = 4;
  agree(g, geom, ViaRule::kBlocking, "coordinate range");
}

}  // namespace
}  // namespace mlvl
