#include "core/multilayer.hpp"

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/collinear.hpp"
#include "core/metrics.hpp"
#include "layout/folded_hc_layout.hpp"
#include "layout/kary_layout.hpp"

namespace mlvl {
namespace {

TEST(Multilayer, ThompsonCaseIsTwoGroups) {
  Orthogonal2Layer o = layout::layout_kary(3, 2);
  MultilayerLayout ml = realize(o, {.L = 2});
  EXPECT_EQ(ml.L, 2u);
  EXPECT_EQ(ml.groups_h, 1u);
  EXPECT_EQ(ml.groups_v, 1u);
  EXPECT_EQ(ml.required_rule, ViaRule::kBlocking);
  EXPECT_TRUE(Checker(o.graph, ml.geom, {.via_rule = ml.required_rule})
                  .check());
}

TEST(Multilayer, EvenLSplitsTracks) {
  Orthogonal2Layer o = layout::layout_kary(3, 4);  // 81 nodes, f_3(2)=8 per band
  MultilayerLayout ml2 = realize(o, {.L = 2});
  MultilayerLayout ml4 = realize(o, {.L = 4});
  MultilayerLayout ml8 = realize(o, {.L = 8});
  // Wiring extents compress by exactly ceil(h / (L/2)) per band.
  EXPECT_EQ(ml4.wiring_height, 9u * 4);  // ceil(8/2)=4 tracks, 9 rows
  EXPECT_EQ(ml8.wiring_height, 9u * 2);
  EXPECT_EQ(ml2.wiring_height, 9u * 8);
  EXPECT_TRUE(Checker(o.graph, ml4.geom, {.via_rule = ml4.required_rule})
                  .check());
  EXPECT_TRUE(Checker(o.graph, ml8.geom, {.via_rule = ml8.required_rule})
                  .check());
}

TEST(Multilayer, OddLUsesAsymmetricSplit) {
  Orthogonal2Layer o = layout::layout_kary(3, 2);
  MultilayerLayout ml = realize(o, {.L = 5});
  EXPECT_EQ(ml.groups_h, 2u);
  EXPECT_EQ(ml.groups_v, 3u);
  // Odd L may require stacked vias; the layout must still verify under the
  // rule it declares.
  EXPECT_TRUE(Checker(o.graph, ml.geom, {.via_rule = ml.required_rule})
                  .check());
}

TEST(Multilayer, RejectsBadOptions) {
  Orthogonal2Layer o = layout::layout_kary(3, 2);
  EXPECT_THROW(realize(o, {.L = 1}), std::invalid_argument);
  EXPECT_THROW(realize(o, RealizeOptions{.L = 2, .node_size = 1}),
               std::invalid_argument);
}

TEST(Multilayer, NodeSizeOverride) {
  Orthogonal2Layer o = layout::layout_kary(3, 2);
  MultilayerLayout small = realize(o, {.L = 2});
  MultilayerLayout big = realize(o, RealizeOptions{.L = 2, .node_size = 20});
  EXPECT_GT(big.geom.width, small.geom.width);
  // Wiring extents are independent of node size.
  EXPECT_EQ(big.wiring_width, small.wiring_width);
  EXPECT_TRUE(Checker(o.graph, big.geom, {.via_rule = big.required_rule})
                  .check());
  for (const NodeBox& b : big.geom.boxes) {
    EXPECT_EQ(b.w, 20u);
    EXPECT_EQ(b.h, 20u);
  }
}

TEST(Multilayer, ExtrasRouteAndVerify) {
  Orthogonal2Layer o = layout::layout_folded_hypercube(4);
  MultilayerLayout ml = realize(o, {.L = 4});
  EXPECT_TRUE(Checker(o.graph, ml.geom, {.via_rule = ml.required_rule})
                  .check());
  LayoutMetrics m = compute_metrics(ml, o.graph);
  // Every edge is routed with positive length.
  for (std::uint32_t len : m.edge_length) EXPECT_GT(len, 0u);
}

TEST(Multilayer, ExtrasPackedNoWiderThanReserved) {
  Orthogonal2Layer o = layout::layout_folded_hypercube(5);
  MultilayerLayout packed =
      realize(o, RealizeOptions{.L = 4, .pack_extras = true});
  MultilayerLayout reserved =
      realize(o, RealizeOptions{.L = 4, .pack_extras = false});
  EXPECT_LE(packed.geom.width, reserved.geom.width);
  EXPECT_LE(packed.geom.height, reserved.geom.height);
  EXPECT_TRUE(Checker(o.graph, packed.geom, {.via_rule = packed.required_rule})
                  .check());
  EXPECT_TRUE(
      Checker(o.graph, reserved.geom, {.via_rule = reserved.required_rule})
          .check());
}

TEST(Multilayer, HigherLNeverIncreasesArea) {
  Orthogonal2Layer o = layout::layout_kary(4, 3);
  std::uint64_t prev = ~0ull;
  for (std::uint32_t L : {2u, 4u, 6u, 8u}) {
    MultilayerLayout ml = realize(o, {.L = L});
    EXPECT_LE(ml.geom.area(), prev) << "L=" << L;
    prev = ml.geom.area();
    EXPECT_TRUE(Checker(o.graph, ml.geom, {.via_rule = ml.required_rule})
                    .check()) << "L=" << L;
  }
}

}  // namespace
}  // namespace mlvl
