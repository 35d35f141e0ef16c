// End-to-end validity of every family construction: build the orthogonal
// layout, realize it at several L, and run the full geometric checker.
#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/metrics.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/cluster_layout.hpp"
#include "layout/folded_hc_layout.hpp"
#include "layout/cayley_layout.hpp"
#include "layout/generic_layout.hpp"
#include "layout/ghc_layout.hpp"
#include "layout/hsn_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/isn_layout.hpp"
#include "layout/kary_layout.hpp"
#include "topology/cayley.hpp"
#include "topology/ring.hpp"

namespace mlvl {
namespace {

void expect_valid(const Orthogonal2Layer& o, std::initializer_list<std::uint32_t> Ls) {
  ASSERT_TRUE(o.is_valid());
  for (std::uint32_t L : Ls) {
    MultilayerLayout ml = realize(o, {.L = L});
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    EXPECT_TRUE(res.ok) << "L=" << L << ": " << res.error;
    if (L % 2 == 0) {
      EXPECT_EQ(ml.required_rule, ViaRule::kBlocking) << "L=" << L;
    }
  }
}

TEST(Families, KaryNatural) { expect_valid(layout::layout_kary(3, 3), {2, 4, 6}); }

TEST(Families, KaryFolded) {
  expect_valid(layout::layout_kary(4, 2, Ordering::kFolded), {2, 4});
}

TEST(Families, KaryOneDimension) { expect_valid(layout::layout_kary(5, 1), {2, 4}); }

TEST(Families, KaryBigK) { expect_valid(layout::layout_kary(8, 2), {2, 8}); }

TEST(Families, KaryMesh) { expect_valid(layout::layout_kary_mesh(4, 3), {2, 4}); }

TEST(Families, MeshCheaperThanTorus) {
  Orthogonal2Layer mesh = layout::layout_kary_mesh(4, 4);
  Orthogonal2Layer torus = layout::layout_kary(4, 4);
  MultilayerLayout mm = realize(mesh, {.L = 4});
  MultilayerLayout mt = realize(torus, {.L = 4});
  EXPECT_LT(mm.wiring_width, mt.wiring_width);
  EXPECT_LT(mm.wiring_height, mt.wiring_height);
}

TEST(Families, Hypercube) { expect_valid(layout::layout_hypercube(6), {2, 4, 8}); }

TEST(Families, HypercubeSmall) { expect_valid(layout::layout_hypercube(2), {2, 4}); }

TEST(Families, GhcUniform) { expect_valid(layout::layout_ghc(4, 2), {2, 4}); }

TEST(Families, GhcMixed) {
  expect_valid(layout::layout_ghc({3, 4, 2}), {2, 4});
}

TEST(Families, GhcSingleDimension) { expect_valid(layout::layout_ghc(6, 1), {2, 4}); }

TEST(Families, FoldedHypercube) {
  expect_valid(layout::layout_folded_hypercube(5), {2, 4, 6});
}

TEST(Families, EnhancedCube) {
  expect_valid(layout::layout_enhanced_cube(5, 99), {2, 4});
}

TEST(Families, Ccc) { expect_valid(layout::layout_ccc(4), {2, 4, 8}); }

TEST(Families, CccOdd) { expect_valid(layout::layout_ccc(5), {2, 4}); }

TEST(Families, CccHasNoExtras) {
  Orthogonal2Layer o = layout::layout_ccc(4);
  EXPECT_TRUE(o.extras.empty());
}

TEST(Families, ReducedHypercube) {
  expect_valid(layout::layout_reduced_hypercube(4), {2, 4});
}

TEST(Families, Hsn) {
  expect_valid(layout::layout_hsn(3, topo::make_ring(4)), {2, 4});
}

TEST(Families, Hhn) { expect_valid(layout::layout_hhn(2, 3), {2, 4}); }

TEST(Families, HsnSingleLevel) {
  expect_valid(layout::layout_hsn(1, topo::make_ring(5)), {2, 4});
}

TEST(Families, Isn) { expect_valid(layout::layout_isn(3, 3), {2, 4}); }

TEST(Families, Butterfly) { expect_valid(layout::layout_butterfly(4), {2, 4}); }

TEST(Families, ButterflySmallClusters) {
  expect_valid(layout::layout_butterfly(4, 1), {2, 4});
}

TEST(Families, KaryClusterHypercube) {
  expect_valid(
      layout::layout_kary_cluster(3, 2, 4, topo::ClusterKind::kHypercube),
      {2, 4});
}

TEST(Families, KaryClusterComplete) {
  expect_valid(
      layout::layout_kary_cluster(3, 2, 4, topo::ClusterKind::kComplete),
      {2, 4});
}

TEST(Families, KaryClusterHasNoExtras) {
  Orthogonal2Layer o =
      layout::layout_kary_cluster(3, 2, 8, topo::ClusterKind::kHypercube);
  EXPECT_TRUE(o.extras.empty());
}

TEST(Families, GenericStarGraph) {
  expect_valid(layout::layout_generic(topo::make_star_graph(4)), {2, 4});
}

TEST(Families, StructuredStarGraph) {
  expect_valid(layout::layout_star_structured(4), {2, 4});
}

TEST(Families, PermClusteredPancake) {
  expect_valid(layout::layout_perm_clustered(topo::make_pancake(4), 4), {2, 4});
}

TEST(Families, PermClusteredTransposition) {
  expect_valid(layout::layout_perm_clustered(topo::make_transposition(4), 4),
               {2, 4});
}

TEST(Families, PermClusteredRejectsWrongSize) {
  EXPECT_THROW(layout::layout_perm_clustered(Graph(10), 4),
               std::invalid_argument);
}

TEST(Families, StructuredStarClusterStructure) {
  // S_4: 4 clusters of 6 on a 2x2 grid of strips; only the 36 dimension-3
  // generator links leave a cluster.
  Orthogonal2Layer o = layout::layout_star_structured(4);
  EXPECT_EQ(o.place.rows, 2u);
  EXPECT_EQ(o.place.cols, 2u * 6);
  std::uint32_t inter = 0;
  for (EdgeId e = 0; e < o.graph.num_edges(); ++e)
    if (o.kind[e] == EdgeKind::kExtra) ++inter;
  // Extras are inter-cluster links that did not land in a shared row:
  // strictly fewer than the (n-1)! * C(n,2) / ... total inter links.
  EXPECT_GT(inter, 0u);
  EXPECT_LT(inter, o.graph.num_edges());
}

TEST(Families, GenericScc) {
  expect_valid(layout::layout_generic(topo::make_scc(4).graph), {2, 4});
}

TEST(Families, OddLayerCounts) {
  // Odd L verified under its declared (stacked-via) rule.
  for (std::uint32_t L : {3u, 5u, 7u}) {
    Orthogonal2Layer o = layout::layout_ghc(3, 2);
    MultilayerLayout ml = realize(o, {.L = L});
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    EXPECT_TRUE(res.ok) << "L=" << L << ": " << res.error;
  }
}

TEST(Families, AreaMonotonicInL) {
  Orthogonal2Layer o = layout::layout_ghc(4, 2);
  std::uint64_t prev = ~0ull;
  for (std::uint32_t L = 2; L <= 10; L += 2) {
    MultilayerLayout ml = realize(o, {.L = L});
    EXPECT_LE(ml.geom.area(), prev);
    prev = ml.geom.area();
  }
}

}  // namespace
}  // namespace mlvl
