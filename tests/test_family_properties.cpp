// Cross-family property sweeps: every constructed layout, at every layer
// count, must (a) pass the geometric checker, (b) satisfy the exact
// metric identities, (c) have monotone track extents in L, and (d) route
// every edge with positive length. Families are enumerated through a
// factory table so a new layout construction is one line here.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "core/checker.hpp"
#include "core/metrics.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/cluster_layout.hpp"
#include "layout/folded_hc_layout.hpp"
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

struct FamilyCase {
  std::string name;
  std::function<Orthogonal2Layer()> build;
};

std::vector<FamilyCase> families() {
  using namespace layout;
  return {
      {"kary_3_3", [] { return layout_kary(3, 3); }},
      {"kary_4_2_folded", [] { return layout_kary(4, 2, Ordering::kFolded); }},
      {"kary_2_5", [] { return layout_kary(2, 5); }},
      {"hypercube_5", [] { return layout_hypercube(5); }},
      {"ghc_5_2", [] { return layout_ghc(5, 2); }},
      {"ghc_mixed_342", [] { return layout_ghc({3, 4, 2}); }},
      {"ghc_k7", [] { return layout_ghc(7, 1); }},
      {"folded_hc_5", [] { return layout_folded_hypercube(5); }},
      {"enhanced_5", [] { return layout_enhanced_cube(5, 77); }},
      {"ccc_4", [] { return layout_ccc(4); }},
      {"rh_4", [] { return layout_reduced_hypercube(4); }},
      {"hsn_3_ring3", [] { return layout_hsn(3, topo::make_ring(3)); }},
      {"hsn_2_ring6", [] { return layout_hsn(2, topo::make_ring(6)); }},
      {"hhn_2_2", [] { return layout_hhn(2, 2); }},
      {"isn_3_3", [] { return layout_isn(3, 3); }},
      {"isn_ctl_3_3", [] { return layout_isn(3, 3, 4); }},
      {"butterfly_4", [] { return layout_butterfly(4); }},
      {"butterfly_5_b1", [] { return layout_butterfly(5, 1); }},
      {"cluster_3_2_4", [] {
         return layout_kary_cluster(3, 2, 4, topo::ClusterKind::kHypercube);
       }},
      {"cluster_3_2_4K", [] {
         return layout_kary_cluster(3, 2, 4, topo::ClusterKind::kComplete);
       }},
      {"star_4", [] { return layout_generic(topo::make_star_graph(4)); }},
      {"bubble_4", [] { return layout_generic(topo::make_bubble_sort(4)); }},
  };
}

class FamilySweep
    : public testing::TestWithParam<std::tuple<std::size_t, std::uint32_t>> {};

TEST_P(FamilySweep, CheckedValidWithConsistentMetrics) {
  const auto [idx, L] = GetParam();
  const FamilyCase fc = families()[idx];
  Orthogonal2Layer o = fc.build();
  ASSERT_TRUE(o.is_valid()) << fc.name;

  MultilayerLayout ml = realize(o, {.L = L});
  CheckReport res =
      Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
  ASSERT_TRUE(res.ok) << fc.name << " L=" << L << ": " << res.error;

  LayoutMetrics m = compute_metrics(ml, o.graph);
  EXPECT_EQ(m.area, std::uint64_t(m.width) * m.height);
  EXPECT_EQ(m.volume, m.area * L);
  EXPECT_LE(m.wiring_width, m.width);
  EXPECT_LE(m.wiring_height, m.height);
  EXPECT_EQ(ml.geom.num_layers, L);
  for (EdgeId e = 0; e < o.graph.num_edges(); ++e)
    EXPECT_GT(m.edge_length[e], 0u) << fc.name << " edge " << e;
  // Even L must satisfy the strict grid model.
  if (L % 2 == 0) {
    EXPECT_EQ(ml.required_rule, ViaRule::kBlocking) << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilySweep,
    testing::Combine(testing::Range<std::size_t>(0, families().size()),
                     testing::Values(2u, 3u, 4u, 8u)),
    [](const testing::TestParamInfo<std::tuple<std::size_t, std::uint32_t>>& info) {
      return families()[std::get<0>(info.param)].name + "_L" +
             std::to_string(std::get<1>(info.param));
    });

class MonotoneSweep : public testing::TestWithParam<std::size_t> {};

TEST_P(MonotoneSweep, WiringAreaShrinkWithL) {
  // Band-by-band the transform is exactly monotone; extras re-balance their
  // hub count with L, so a single dimension may wiggle by a track or two.
  // The wiring area must still shrink essentially monotonically.
  const FamilyCase fc = families()[GetParam()];
  Orthogonal2Layer o = fc.build();
  std::uint64_t prev = ~0ull;
  std::uint64_t at2 = 0;
  for (std::uint32_t L = 2; L <= 12; L += 2) {
    MultilayerLayout ml = realize(o, {.L = L});
    const std::uint64_t a =
        std::uint64_t(ml.wiring_width) * ml.wiring_height;
    if (L == 2) at2 = a;
    EXPECT_LE(a, prev + prev / 8 + 2) << fc.name << " L=" << L;
    prev = a;
  }
  // And the L=12 layout must be far below the 2-layer one.
  EXPECT_LT(prev * 3, at2) << fc.name;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, MonotoneSweep,
                         testing::Range<std::size_t>(0, families().size()),
                         [](const testing::TestParamInfo<std::size_t>& info) {
                           return families()[info.param].name;
                         });

}  // namespace
}  // namespace mlvl
