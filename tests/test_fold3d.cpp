#include "core/fold3d.hpp"

#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/metrics.hpp"
#include "layout/ghc_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"

namespace mlvl {
namespace {

TEST(Fold3d, SingleSlabIsIdentity) {
  Orthogonal2Layer o = layout::layout_kary(3, 2);
  MultilayerLayout ml = realize(o, {.L = 2});
  Fold3dLayout f = fold_3d(ml, 1);
  EXPECT_EQ(f.geom.height, ml.geom.height);
  EXPECT_EQ(f.geom.num_layers, ml.geom.num_layers);
  EXPECT_EQ(f.geom.segs.size(), ml.geom.segs.size());
}

TEST(Fold3d, TwoSlabsHalveHeightAndVerify) {
  Orthogonal2Layer o = layout::layout_hypercube(6);
  MultilayerLayout ml = realize(o, {.L = 2});
  Fold3dLayout f = fold_3d(ml, 2);
  EXPECT_EQ(f.geom.num_layers, 4u);
  EXPECT_LE(f.geom.height, ml.geom.height / 2 + 12);  // snap slack
  CheckReport res =
      Checker(o.graph, f.geom, {.via_rule = ViaRule::kTransparent}).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Fold3d, FourSlabsQuarterHeight) {
  Orthogonal2Layer o = layout::layout_hypercube(8);
  MultilayerLayout ml = realize(o, {.L = 2});
  Fold3dLayout f = fold_3d(ml, 4);
  EXPECT_EQ(f.geom.num_layers, 8u);
  EXPECT_LE(f.geom.height, ml.geom.height / 4 + 16);
  CheckReport res =
      Checker(o.graph, f.geom, {.via_rule = ViaRule::kTransparent}).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Fold3d, VolumeAndWirePreserved) {
  // The paper's point: folding keeps volume and wire length approximately
  // the same; only the footprint shrinks.
  Orthogonal2Layer o = layout::layout_hypercube(8);
  MultilayerLayout ml = realize(o, {.L = 2});
  LayoutMetrics base = compute_metrics(ml, o.graph);
  Fold3dLayout f = fold_3d(ml, 4);

  const std::uint64_t folded_volume =
      f.geom.area() * f.geom.num_layers;
  EXPECT_GT(double(folded_volume), double(base.volume) * 0.9);
  EXPECT_LT(double(folded_volume), double(base.volume) * 1.3);

  // x-y wire length can only shrink (y-travel becomes z at fold lines).
  std::uint64_t folded_len = 0;
  for (const WireSeg& s : f.geom.segs) folded_len += s.length();
  EXPECT_LE(folded_len, base.total_wire_length);
  EXPECT_GT(folded_len, base.total_wire_length / 2);
}

TEST(Fold3d, AreaReductionApproachesSlabs) {
  Orthogonal2Layer o = layout::layout_ghc(8, 2);
  MultilayerLayout ml = realize(o, {.L = 2});
  for (std::uint32_t t : {2u, 4u}) {
    Fold3dLayout f = fold_3d(ml, t);
    const double reduction = double(ml.geom.area()) / f.geom.area();
    EXPECT_GT(reduction, t * 0.8) << "t=" << t;
    EXPECT_LE(reduction, t * 1.01) << "t=" << t;
    CheckReport res =
        Checker(o.graph, f.geom, {.via_rule = ViaRule::kTransparent}).check();
    EXPECT_TRUE(res.ok) << res.error;
  }
}

TEST(Fold3d, FoldOfMultilayerLayout) {
  // Folding composes with the L-layer transform (slabs of 4 wiring layers).
  Orthogonal2Layer o = layout::layout_hypercube(6);
  MultilayerLayout ml = realize(o, {.L = 4});
  Fold3dLayout f = fold_3d(ml, 2);
  EXPECT_EQ(f.geom.num_layers, 8u);
  CheckReport res =
      Checker(o.graph, f.geom, {.via_rule = ViaRule::kTransparent}).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Fold3d, RejectsDegenerate) {
  Orthogonal2Layer o = layout::layout_kary(3, 1);
  MultilayerLayout ml = realize(o, {.L = 2});
  EXPECT_THROW(fold_3d(ml, 0), std::invalid_argument);
  EXPECT_THROW(fold_3d(ml, 100), std::invalid_argument);
}

}  // namespace
}  // namespace mlvl
