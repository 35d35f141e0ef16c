#include "core/multilayer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string_view>

#include "core/checker.hpp"
#include "core/collinear.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/folded_hc_layout.hpp"
#include "layout/hypercube_layout.hpp"
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
  // Layer numbers are 16-bit: L = 65540 would wrap to 4 layers.
  constexpr std::uint32_t kMaxL = std::numeric_limits<std::uint16_t>::max();
  EXPECT_THROW(realize(o, {.L = kMaxL + 1}), std::invalid_argument);
  EXPECT_THROW(realize(o, {.L = 65540}), std::invalid_argument);
  EXPECT_EQ(realize(o, {.L = kMaxL}).geom.num_layers, kMaxL);
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

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The emitted geometry, byte for byte: FNV-1a of the mlvl text of layouts
// that cover row, column and extra edges, odd L (stacked vias), a fixed node
// size, unpacked extras and a fixed hub count. Any change to terminal
// ranking, extra-link track assignment or emission order shows here.
TEST(Multilayer, GeometryBytesPinned) {
  struct Case {
    const char* name;
    Orthogonal2Layer (*build)();
    RealizeOptions opt;
    std::uint64_t fnv;
  };
  const Case cases[] = {
      {"kary(3,2) L=2", [] { return layout::layout_kary(3, 2); }, {.L = 2},
       0xf00ac5501dd7b6a8ULL},
      {"kary(4,3) L=8", [] { return layout::layout_kary(4, 3); }, {.L = 8},
       0x5f644f11b5baa803ULL},
      {"hypercube(6) L=4", [] { return layout::layout_hypercube(6); },
       {.L = 4}, 0xfce7286f73505e49ULL},
      {"hypercube(5) L=5", [] { return layout::layout_hypercube(5); },
       {.L = 5}, 0xb1fa60d73739d772ULL},
      {"ccc(4) L=7", [] { return layout::layout_ccc(4); }, {.L = 7},
       0x69e2e2863cc56ef0ULL},
      {"butterfly(4) L=6", [] { return layout::layout_butterfly(4); },
       {.L = 6}, 0xce785e2010712202ULL},
      {"folded(5) L=4", [] { return layout::layout_folded_hypercube(5); },
       {.L = 4}, 0x23fdc3ea7487898dULL},
      {"folded(6) L=3", [] { return layout::layout_folded_hypercube(6); },
       {.L = 3}, 0x8f3e15804e27551cULL},
      {"folded(5) L=4 unpacked",
       [] { return layout::layout_folded_hypercube(5); },
       {.L = 4, .pack_extras = false}, 0x9fcc12b87b3924b5ULL},
      {"folded(5) L=8 hubs=2",
       [] { return layout::layout_folded_hypercube(5); },
       {.L = 8, .extra_hubs = 2}, 0x49f443aae592e82eULL},
      {"kary(3,3) L=4 node_size=12", [] { return layout::layout_kary(3, 3); },
       {.L = 4, .node_size = 12}, 0x6f3d48eff4f9ac66ULL},
  };
  bool saw_extras = false, saw_stacked = false;
  for (const Case& c : cases) {
    const Orthogonal2Layer o = c.build();
    const MultilayerLayout ml = realize(o, c.opt);
    saw_extras |= !o.extras.empty();
    saw_stacked |= ml.required_rule == ViaRule::kTransparent;
    std::ostringstream os;
    io::write_geometry(os, ml.geom);
    EXPECT_EQ(fnv1a(os.str()), c.fnv)
        << c.name << ": 0x" << std::hex << fnv1a(os.str());
  }
  EXPECT_TRUE(saw_extras);
  EXPECT_TRUE(saw_stacked);
}

}  // namespace
}  // namespace mlvl
