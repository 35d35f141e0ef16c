// Focused tests of the extra-link (Z-route) machinery: hub selection, group
// assignment, packed vs reserved accounting, degenerate geometry, and
// interaction with the checker.
#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/metrics.hpp"
#include "core/multilayer.hpp"
#include "layout/folded_hc_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"

namespace mlvl {
namespace {

/// Small fixture: a 3x3 grid of isolated nodes plus hand-added extras.
Orthogonal2Layer grid9() {
  Graph g(9);
  Placement p;
  p.rows = p.cols = 3;
  p.row_of.resize(9);
  p.col_of.resize(9);
  for (NodeId u = 0; u < 9; ++u) {
    p.row_of[u] = u / 3;
    p.col_of[u] = u % 3;
  }
  return orthogonal_greedy(std::move(g), std::move(p));
}

TEST(Extras, SingleDiagonalRoutesAndChecks) {
  Orthogonal2Layer o = grid9();
  o.add_extra_edge(0, 8);
  for (std::uint32_t L : {2u, 4u, 6u}) {
    MultilayerLayout ml = realize(o, {.L = L});
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    EXPECT_TRUE(res.ok) << "L=" << L << ": " << res.error;
  }
}

TEST(Extras, SameRowExtra) {
  Orthogonal2Layer o = grid9();
  o.add_extra_edge(3, 5);  // same row, forced through the extra machinery
  MultilayerLayout ml = realize(o, {.L = 4});
  CheckReport res =
      Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Extras, SameColumnExtra) {
  Orthogonal2Layer o = grid9();
  o.add_extra_edge(1, 7);  // same column
  MultilayerLayout ml = realize(o, {.L = 4});
  CheckReport res =
      Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Extras, AdjacentCellsExtra) {
  Orthogonal2Layer o = grid9();
  o.add_extra_edge(4, 8);  // one step diagonal
  MultilayerLayout ml = realize(o, {.L = 2});
  CheckReport res =
      Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Extras, ManyExtrasAllPairsSmall) {
  // Complete graph routed entirely as extras except row/col pairs.
  Graph g(9);
  for (NodeId a = 0; a < 9; ++a)
    for (NodeId b = a + 1; b < 9; ++b) g.add_edge(a, b);
  Placement p;
  p.rows = p.cols = 3;
  p.row_of.resize(9);
  p.col_of.resize(9);
  for (NodeId u = 0; u < 9; ++u) {
    p.row_of[u] = u / 3;
    p.col_of[u] = u % 3;
  }
  Orthogonal2Layer o = orthogonal_greedy(std::move(g), std::move(p));
  EXPECT_EQ(o.extras.size(), 36u - 9u - 9u);  // C(9,2) minus row/col pairs
  for (std::uint32_t L : {2u, 4u, 8u}) {
    MultilayerLayout ml = realize(o, {.L = L});
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    EXPECT_TRUE(res.ok) << "L=" << L << ": " << res.error;
  }
}

TEST(Extras, HubCountOverrideIsRespected) {
  Orthogonal2Layer o = layout::layout_folded_hypercube(6);
  for (std::uint32_t hubs : {1u, 2u, 4u, 100u}) {
    MultilayerLayout ml = realize(
        o, RealizeOptions{.L = 4, .node_size = 0, .pack_extras = true,
                          .extra_hubs = hubs});
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    EXPECT_TRUE(res.ok) << "hubs=" << hubs << ": " << res.error;
  }
}

TEST(Extras, MoreHubsNeverBreakValidity) {
  Orthogonal2Layer o = grid9();
  o.add_extra_edge(0, 8);
  o.add_extra_edge(2, 6);
  o.add_extra_edge(0, 4);
  o.add_extra_edge(8, 4);
  for (std::uint32_t hubs = 1; hubs <= 6; ++hubs) {
    MultilayerLayout ml = realize(
        o, RealizeOptions{.L = 4, .node_size = 0, .pack_extras = true,
                          .extra_hubs = hubs});
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    EXPECT_TRUE(res.ok) << "hubs=" << hubs << ": " << res.error;
  }
}

TEST(Extras, ReservedModeNeverNarrowerThanPacked) {
  Orthogonal2Layer o = layout::layout_folded_hypercube(6);
  for (std::uint32_t L : {2u, 4u, 8u}) {
    MultilayerLayout packed =
        realize(o, RealizeOptions{.L = L, .node_size = 0, .pack_extras = true});
    MultilayerLayout reserved = realize(
        o, RealizeOptions{.L = L, .node_size = 0, .pack_extras = false});
    EXPECT_LE(packed.wiring_width, reserved.wiring_width) << "L=" << L;
    EXPECT_LE(packed.wiring_height, reserved.wiring_height) << "L=" << L;
  }
}

TEST(Extras, ExtraWidthCompressesWithLayers) {
  // The whole point of the Z-route hubs: the extras' contribution to the
  // wiring width must shrink as L grows.
  Orthogonal2Layer o = layout::layout_folded_hypercube(8);
  MultilayerLayout m2 = realize(o, {.L = 2});
  MultilayerLayout m8 = realize(o, {.L = 8});
  EXPECT_LT(m8.wiring_width * 2, m2.wiring_width);
  EXPECT_LT(m8.wiring_height * 2, m2.wiring_height);
}

TEST(Extras, ExtrasOnlyLayoutHasFiniteArea) {
  // A placement where nothing aligns: every edge is an extra.
  Graph g(4);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  Placement p;
  p.rows = p.cols = 4;  // diagonal placement
  p.row_of = {0, 1, 2, 3};
  p.col_of = {0, 1, 2, 3};
  Orthogonal2Layer o = orthogonal_greedy(std::move(g), std::move(p));
  EXPECT_EQ(o.extras.size(), 2u);
  MultilayerLayout ml = realize(o, {.L = 2});
  CheckReport res =
      Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
  EXPECT_TRUE(res.ok) << res.error;
  LayoutMetrics m = compute_metrics(ml, o.graph);
  EXPECT_GT(m.edge_length[0], 0u);
  EXPECT_GT(m.edge_length[1], 0u);
}

TEST(Extras, EnhancedCubeRandomTargetsAlwaysRoute) {
  // Random extra targets can share a row or column with their source; every
  // seed must still produce checker-valid geometry.
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
    Orthogonal2Layer o = layout::layout_enhanced_cube(4, seed);
    MultilayerLayout ml = realize(o, {.L = 4});
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    EXPECT_TRUE(res.ok) << "seed=" << seed << ": " << res.error;
  }
}

TEST(Extras, DeterministicRealization) {
  Orthogonal2Layer o = layout::layout_folded_hypercube(5);
  MultilayerLayout a = realize(o, {.L = 4});
  MultilayerLayout b = realize(o, {.L = 4});
  ASSERT_EQ(a.geom.segs.size(), b.geom.segs.size());
  for (std::size_t i = 0; i < a.geom.segs.size(); ++i) {
    EXPECT_EQ(a.geom.segs[i].x1, b.geom.segs[i].x1);
    EXPECT_EQ(a.geom.segs[i].y1, b.geom.segs[i].y1);
    EXPECT_EQ(a.geom.segs[i].layer, b.geom.segs[i].layer);
  }
}

}  // namespace
}  // namespace mlvl
