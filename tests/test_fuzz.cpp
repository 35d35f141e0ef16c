// Randomized end-to-end validation: seeded random graphs with random
// placements must always realize into checker-valid geometry at every layer
// count, with every edge routed. This exercises edge classification, track
// assignment, terminal ordering, extra-link hubs and the emitter far beyond
// the structured families.
#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/metrics.hpp"
#include "core/multilayer.hpp"
#include "core/orthogonal.hpp"

namespace mlvl {
namespace {

std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct FuzzCase {
  std::uint64_t seed;
  std::uint32_t nodes;
  std::uint32_t edges;
  std::uint32_t L;
};

class Fuzz : public testing::TestWithParam<FuzzCase> {};

TEST_P(Fuzz, RandomLayoutAlwaysValid) {
  const FuzzCase fc = GetParam();
  std::uint64_t s = fc.seed;

  Graph g(fc.nodes);
  for (std::uint32_t i = 0; i < fc.edges; ++i) {
    NodeId a = static_cast<NodeId>(splitmix64(s) % fc.nodes);
    NodeId b = static_cast<NodeId>(splitmix64(s) % fc.nodes);
    if (a == b) b = (b + 1) % fc.nodes;
    g.add_edge(a, b);  // parallel edges welcome
  }

  // Random-ish rectangular placement.
  const std::uint32_t cols = 2 + static_cast<std::uint32_t>(splitmix64(s) % 6);
  Placement p;
  p.cols = cols;
  p.rows = (fc.nodes + cols - 1) / cols;
  p.row_of.resize(fc.nodes);
  p.col_of.resize(fc.nodes);
  // Random permutation of grid cells.
  std::vector<std::uint32_t> cells(static_cast<std::size_t>(p.rows) * cols);
  for (std::uint32_t i = 0; i < cells.size(); ++i) cells[i] = i;
  for (std::size_t i = cells.size(); i > 1; --i)
    std::swap(cells[i - 1], cells[splitmix64(s) % i]);
  for (NodeId u = 0; u < fc.nodes; ++u) {
    p.row_of[u] = cells[u] / cols;
    p.col_of[u] = cells[u] % cols;
  }

  Orthogonal2Layer o = orthogonal_greedy(std::move(g), std::move(p));
  ASSERT_TRUE(o.is_valid());
  MultilayerLayout ml = realize(o, {.L = fc.L});
  CheckReport res =
      Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
  ASSERT_TRUE(res.ok) << "seed=" << fc.seed << ": " << res.error;
  LayoutMetrics m = compute_metrics(ml, o.graph);
  for (EdgeId e = 0; e < o.graph.num_edges(); ++e)
    EXPECT_GT(m.edge_length[e], 0u);
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  std::uint64_t seed = 20260707;
  for (std::uint32_t i = 0; i < 24; ++i) {
    FuzzCase fc;
    fc.seed = seed + i * 7919;
    fc.nodes = 6 + (i * 5) % 30;
    fc.edges = fc.nodes + (i * 13) % (3 * fc.nodes);
    const std::uint32_t Ls[] = {2, 3, 4, 5, 8, 12};
    fc.L = Ls[i % 6];
    cases.push_back(fc);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Fuzz, testing::ValuesIn(fuzz_cases()),
                         [](const testing::TestParamInfo<FuzzCase>& info) {
                           std::string name = "n";
                           name += std::to_string(info.param.nodes) + "m" +
                                   std::to_string(info.param.edges) + "L" +
                                   std::to_string(info.param.L) + "i" +
                                   std::to_string(info.index);
                           return name;
                         });

}  // namespace
}  // namespace mlvl
