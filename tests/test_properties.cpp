// Parameterized property sweeps: every (family instance, L) pair must
// produce checker-valid geometry whose wiring extents follow the exact
// ceil-arithmetic of the multilayer transform, and whose area never grows
// with more layers.
#include <gtest/gtest.h>

#include <numeric>

#include "core/checker.hpp"
#include "core/metrics.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/ghc_layout.hpp"
#include "layout/hsn_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"
#include "topology/ring.hpp"

namespace mlvl {
namespace {

struct KaryParam {
  std::uint32_t k, n, L;
};

class KarySweep : public testing::TestWithParam<KaryParam> {};

TEST_P(KarySweep, ValidAndExactBandArithmetic) {
  const auto [k, n, L] = GetParam();
  Orthogonal2Layer o = layout::layout_kary(k, n);
  MultilayerLayout ml = realize(o, {.L = L});
  CheckReport res =
      Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
  ASSERT_TRUE(res.ok) << res.error;

  const std::uint32_t th = L / 2, tv = (L + 1) / 2;
  std::uint32_t wh = 0, ww = 0;
  for (std::uint32_t h : o.row_tracks) wh += (h + th - 1) / th;
  for (std::uint32_t w : o.col_tracks) ww += (w + tv - 1) / tv;
  EXPECT_EQ(ml.wiring_height, wh);
  EXPECT_EQ(ml.wiring_width, ww);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KarySweep,
    testing::Values(KaryParam{3, 2, 2}, KaryParam{3, 2, 4}, KaryParam{3, 2, 6},
                    KaryParam{3, 3, 2}, KaryParam{3, 3, 8}, KaryParam{4, 2, 3},
                    KaryParam{4, 2, 4}, KaryParam{4, 3, 4}, KaryParam{5, 2, 2},
                    KaryParam{5, 2, 10}, KaryParam{6, 2, 5},
                    KaryParam{7, 2, 4}, KaryParam{2, 4, 4}, KaryParam{8, 1, 2}),
    [](const testing::TestParamInfo<KaryParam>& info) {
      std::string name = "k";
      name += std::to_string(info.param.k) + "n" +
              std::to_string(info.param.n) + "L" + std::to_string(info.param.L);
      return name;
    });

class HypercubeSweep : public testing::TestWithParam<std::uint32_t> {};

TEST_P(HypercubeSweep, TrackCountsMatchFormulaPerBand) {
  const std::uint32_t n = GetParam();
  Orthogonal2Layer o = layout::layout_hypercube(n);
  for (std::uint32_t h : o.row_tracks)
    EXPECT_EQ(h, hypercube_track_formula(n / 2));
  for (std::uint32_t w : o.col_tracks)
    EXPECT_EQ(w, hypercube_track_formula(n - n / 2));
  MultilayerLayout ml = realize(o, {.L = 4});
  CheckReport res =
      Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
  EXPECT_TRUE(res.ok) << res.error;
}

INSTANTIATE_TEST_SUITE_P(Sweep, HypercubeSweep, testing::Range(2u, 9u));

class GhcSweep
    : public testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(GhcSweep, WiringAreaWithinPaperConstant) {
  const auto [r, L] = GetParam();
  Orthogonal2Layer o = layout::layout_ghc(r, 2);
  MultilayerLayout ml = realize(o, {.L = L});
  ASSERT_TRUE(Checker(o.graph, ml.geom, {.via_rule = ml.required_rule})
                  .check().ok);
  // Wiring-only area must sit within ~(1 + o(1)) of r^2 N^2 / (4 l2); the
  // ceil() rounding may push small instances above, hence the slack.
  const double N = o.graph.num_nodes();
  const double l2 = (L % 2 == 0) ? double(L) * L : double(L) * L - 1.0;
  const double paper = r * r * N * N / (4.0 * l2);
  const double measured = double(ml.wiring_width) * ml.wiring_height;
  EXPECT_LE(measured, paper * 1.6) << "r=" << r << " L=" << L;
  EXPECT_GE(measured, paper * 0.5) << "r=" << r << " L=" << L;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GhcSweep,
                         testing::Combine(testing::Values(3u, 4u, 5u, 6u),
                                          testing::Values(2u, 4u)));

class LayerSweep : public testing::TestWithParam<std::uint32_t> {};

TEST_P(LayerSweep, EveryFamilyValidAtThisL) {
  const std::uint32_t L = GetParam();
  auto valid = [L](const Orthogonal2Layer& o) {
    const MultilayerLayout ml = realize(o, {.L = L});
    return Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check().ok;
  };
  EXPECT_TRUE(valid(layout::layout_ccc(3))) << "ccc";
  EXPECT_TRUE(valid(layout::layout_hsn(2, topo::make_ring(4)))) << "hsn";
  EXPECT_TRUE(valid(layout::layout_hypercube(4))) << "hypercube";
}

INSTANTIATE_TEST_SUITE_P(Sweep, LayerSweep, testing::Range(2u, 13u));

TEST(Properties, VolumeIsAreaTimesLayers) {
  for (std::uint32_t L : {2u, 4u, 6u, 8u}) {
    Orthogonal2Layer o = layout::layout_kary(4, 2);
    MultilayerLayout ml = realize(o, {.L = L});
    LayoutMetrics m = compute_metrics(ml, o.graph);
    EXPECT_EQ(m.volume, m.area * L);
  }
}

TEST(Properties, TotalWireIsSumOfEdgeLengths) {
  Orthogonal2Layer o = layout::layout_hypercube(5);
  MultilayerLayout ml = realize(o, {.L = 4});
  LayoutMetrics m = compute_metrics(ml, o.graph);
  const std::uint64_t sum =
      std::accumulate(m.edge_length.begin(), m.edge_length.end(), 0ull);
  EXPECT_EQ(m.total_wire_length, sum);
  EXPECT_EQ(m.edge_length[m.max_wire_edge], m.max_wire_length);
}

}  // namespace
}  // namespace mlvl
