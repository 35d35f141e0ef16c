#include "core/fold.hpp"

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/metrics.hpp"
#include "layout/hypercube_layout.hpp"

namespace mlvl {
namespace {

LayoutMetrics two_layer_metrics(std::uint32_t n) {
  Orthogonal2Layer o = layout::layout_hypercube(n);
  MultilayerLayout ml = realize(o, {.L = 2});
  return compute_metrics(ml, o.graph);
}

TEST(Fold, RequiresTwoLayerInput) {
  LayoutMetrics m = two_layer_metrics(4);
  m.layers = 4;
  EXPECT_THROW(static_cast<void>(fold_thompson(m, 8)), std::invalid_argument);
}

TEST(Fold, AreaShrinksByHalfL) {
  const LayoutMetrics m = two_layer_metrics(6);
  for (std::uint32_t L : {4u, 8u, 16u}) {
    const std::uint32_t strips = L / 2;
    BaselineMetrics b = fold_thompson(m, L);
    // Exact strip arithmetic: ceil height plus one turnaround track per fold.
    EXPECT_EQ(b.width, m.width);
    EXPECT_EQ(b.height, (m.height + strips - 1) / strips + 1) << "L=" << L;
    // Volume is NOT reduced by folding — that is the paper's point.
    EXPECT_GE(b.volume, m.volume * 95 / 100);
    // Wire lengths are preserved.
    EXPECT_EQ(b.max_wire_length, m.max_wire_length);
  }
}

TEST(Fold, IdentityAtTwoLayers) {
  const LayoutMetrics m = two_layer_metrics(4);
  BaselineMetrics b = fold_thompson(m, 2);
  EXPECT_EQ(b.area, m.area);
  EXPECT_EQ(b.volume, m.volume);
}

TEST(CollinearBaseline, AreaOnlyShrinksByHalfL) {
  CollinearResult hc = collinear_hypercube(8);
  BaselineMetrics b2 = collinear_multilayer(hc.graph, hc.layout, 2, 1);
  BaselineMetrics b8 = collinear_multilayer(hc.graph, hc.layout, 8, 1);
  // Area improves by at most ~L/2 (height-only compression)...
  EXPECT_GT(double(b2.area) / double(b8.area), 2.0);
  EXPECT_LE(double(b2.area) / double(b8.area), 4.0 + 0.5);
  // ...but volume does not improve at all.
  EXPECT_GE(b8.volume, b2.volume);
  // And the dominant horizontal span does not shrink.
  EXPECT_GE(b8.max_wire_length + 2 * b2.height,
            hc.layout.max_span(hc.graph));
}

TEST(CollinearBaseline, RejectsBadArgs) {
  CollinearResult hc = collinear_hypercube(3);
  EXPECT_THROW(static_cast<void>(collinear_multilayer(hc.graph, hc.layout, 1, 1)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(collinear_multilayer(hc.graph, hc.layout, 4, 0)),
               std::invalid_argument);
}

TEST(Fold, DirectLayoutBeatsFoldedBaseline) {
  // Claim (1) of Sec. 1 at a concrete size: for L=8, the direct multilayer
  // design's track area is ~ (L/2)x smaller than the folded-Thompson
  // baseline's (whose track area only shrinks by L/2). Track (wiring) area
  // is the quantity the paper's leading constants count; gross area adds the
  // node boxes, which the paper assumes asymptotically negligible.
  Orthogonal2Layer o = layout::layout_hypercube(8);
  const LayoutMetrics m2 = two_layer_metrics(8);
  MultilayerLayout ml = realize(o, {.L = 8});
  ASSERT_TRUE(Checker(o.graph, ml.geom, {.via_rule = ml.required_rule})
                  .check());
  const LayoutMetrics m8 = compute_metrics(ml, o.graph);
  const double folded_wiring = double(m2.wiring_area) / (8 / 2);
  const double advantage = folded_wiring / double(m8.wiring_area);
  EXPECT_GT(advantage, 2.5);  // ideal is 4 = L/2, minus ceil() quantization
}

}  // namespace
}  // namespace mlvl
