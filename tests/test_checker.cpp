#include "core/checker.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"

namespace mlvl {
namespace {

/// Two nodes side by side joined by one wire on layer 1.
struct Fixture {
  Graph g{2};
  LayoutGeometry geom;

  Fixture() {
    g.add_edge(0, 1);
    geom.num_layers = 2;
    geom.width = 12;
    geom.height = 4;
    geom.boxes = {{0, 1, 2, 2, 0}, {9, 1, 2, 2, 1}};
    geom.segs = {{1, 1, 9, 1, 1, 0}};  // layer-1 wire between the boxes
  }
};

TEST(Checker, AcceptsMinimalLayout) {
  Fixture f;
  CheckReport res = Checker(f.g, f.geom).check();
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.points, 0u);
}

TEST(Checker, RejectsUnroutedEdge) {
  Fixture f;
  f.geom.segs.clear();
  EXPECT_FALSE(Checker(f.g, f.geom).check().ok);
}

TEST(Checker, RejectsDisconnectedWire) {
  Fixture f;
  f.geom.segs = {{1, 1, 3, 1, 1, 0}, {6, 1, 9, 1, 1, 0}};  // gap at x=4..5
  CheckReport res = Checker(f.g, f.geom).check();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("disconnected"), std::string::npos);
}

TEST(Checker, RejectsWireMissingTerminal) {
  Fixture f;
  f.geom.segs = {{1, 1, 7, 1, 1, 0}};  // stops short of node 1's box
  CheckReport res = Checker(f.g, f.geom).check();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("terminals"), std::string::npos);
}

TEST(Checker, RejectsOverlappingWires) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 12;
  geom.height = 6;
  geom.boxes = {{0, 1, 2, 2, 0}, {9, 1, 2, 2, 1}, {9, 4, 2, 2, 2}};
  geom.segs = {{1, 1, 9, 1, 1, 0}, {1, 1, 9, 1, 1, 1}};  // same track!
  CheckReport res = Checker(g, geom).check();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("collision"), std::string::npos);
}

TEST(Checker, DifferentLayersMayCross) {
  // A horizontal wire on layer 1 and a vertical wire on layer 2 crossing at
  // the same (x, y): legal (the Thompson crossing).
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 14;
  geom.height = 14;
  geom.boxes = {{0, 5, 2, 2, 0}, {11, 5, 2, 2, 1}, {5, 0, 2, 2, 2}, {5, 11, 2, 2, 3}};
  geom.segs = {{1, 6, 11, 6, 1, 0},   // horizontal, layer 1
               {6, 1, 6, 12, 2, 1}};  // vertical, layer 2, crosses at (6,6)
  geom.vias = {{6, 1, 1, 2, 1}, {6, 12, 1, 2, 1}};  // terminals for edge 1
  CheckReport res = Checker(g, geom).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Checker, BlockingViaConflictsWithCrossingWire) {
  // Same crossing, but edge 1 drops a via through the crossing point.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 14;
  geom.height = 14;
  geom.boxes = {{0, 5, 2, 2, 0}, {11, 5, 2, 2, 1}, {5, 0, 2, 2, 2}, {5, 11, 2, 2, 3}};
  geom.segs = {{1, 6, 11, 6, 1, 0}, {6, 1, 6, 12, 2, 1}};
  geom.vias = {{6, 6, 1, 2, 1}};  // knock-knee style via at the crossing
  EXPECT_FALSE(Checker(g, geom, {.via_rule = ViaRule::kBlocking}).check().ok);
}

TEST(Checker, TransparentViaSkipsInteriorLayers) {
  // A via from layer 1 to 3 whose column crosses a wire on layer 2: illegal
  // under kBlocking, legal under kTransparent.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  LayoutGeometry geom;
  geom.num_layers = 3;
  geom.width = 14;
  geom.height = 14;
  geom.boxes = {{0, 5, 2, 2, 0},   // node 0
                {11, 5, 2, 2, 1},  // node 1
                {1, 0, 2, 2, 2},   // node 2 (top, above the via column)
                {1, 11, 2, 2, 3}}; // node 3 (bottom)
  geom.segs = {{1, 6, 2, 6, 1, 0},    // edge 0: stub out of box 0 on layer 1
               {2, 6, 11, 6, 3, 0},   // edge 0: run on layer 3
               {2, 1, 2, 12, 2, 1}};  // edge 1: vertical on layer 2 at x=2
  geom.vias = {{2, 6, 1, 3, 0},    // edge 0 climbs 1 -> 3 across layer 2
               {11, 6, 1, 3, 0},   // edge 0 terminal at node 1
               {2, 1, 1, 2, 1},    // edge 1 terminals
               {2, 12, 1, 2, 1}};
  EXPECT_FALSE(Checker(g, geom, {.via_rule = ViaRule::kBlocking}).check().ok);
  CheckReport res =
      Checker(g, geom, {.via_rule = ViaRule::kTransparent}).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Checker, RejectsWireThroughForeignBox) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 12;
  geom.height = 8;
  geom.boxes = {{0, 1, 2, 2, 0}, {9, 1, 2, 2, 1}, {5, 0, 2, 3, 2}};
  geom.segs = {{1, 1, 9, 1, 1, 0},   // edge 0 runs straight through box 2
               {1, 2, 5, 2, 1, 1}};  // edge (0,2) may touch box 2
  CheckReport res = Checker(g, geom).check();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("enters box"), std::string::npos);
}

TEST(Checker, RejectsOutOfBounds) {
  Fixture f;
  f.geom.segs.push_back({0, 0, 20, 0, 1, 0});
  EXPECT_FALSE(Checker(f.g, f.geom).check().ok);
}

TEST(Checker, RejectsBadLayer) {
  Fixture f;
  f.geom.segs[0].layer = 5;
  EXPECT_FALSE(Checker(f.g, f.geom).check().ok);
}

TEST(Checker, RejectsOverlappingBoxes) {
  Fixture f;
  f.geom.boxes[1] = {1, 1, 2, 2, 1};
  EXPECT_FALSE(Checker(f.g, f.geom).check().ok);
}

TEST(Checker, RejectsMissingBox) {
  Fixture f;
  f.geom.boxes.pop_back();
  EXPECT_FALSE(Checker(f.g, f.geom).check().ok);
}

// ---- The redesigned Checker API -------------------------------------------

/// K disjoint edge groups stacked vertically, one per 3-row stripe.
struct Tall {
  static constexpr std::uint32_t kGroups = 32;
  Graph g{2 * kGroups};
  LayoutGeometry geom;

  Tall() {
    geom.num_layers = 2;
    geom.width = 12;
    geom.height = 3 * kGroups;
    for (std::uint32_t i = 0; i < kGroups; ++i) {
      const std::uint32_t y = 3 * i;
      g.add_edge(2 * i, 2 * i + 1);
      geom.boxes.push_back({0, y, 2, 2, 2 * i});
      geom.boxes.push_back({9, y, 2, 2, 2 * i + 1});
      geom.segs.push_back({1, y, 9, y, 1, i});
    }
  }
};

std::vector<std::string> rendered(const DiagnosticSink& sink) {
  std::vector<std::string> out;
  for (const Diagnostic& d : sink.diagnostics()) out.push_back(d.to_string());
  return out;
}

TEST(CheckerApi, FullCheckCountsDistinctClaims) {
  Tall t;
  Checker checker(t.g, t.geom);
  DiagnosticSink sink(256);
  CheckReport rep = checker.check(sink);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(static_cast<bool>(rep));
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(rep.points, 9u * Tall::kGroups);  // each wire claims 9 points
  EXPECT_GE(rep.wall_ms, 0.0);
}

TEST(CheckerApi, RepeatedCheckSeesGeometryEdits) {
  Tall t;
  Checker checker(t.g, t.geom);
  ASSERT_TRUE(checker.check().ok);

  // Edge 6 grows a stub that steals a point from edge 5's wire.
  const std::uint32_t y = 3 * 5;
  t.geom.segs.push_back({4, y, 4, y + 3, 1, 6});

  DiagnosticSink sink(256);
  CheckReport rep = checker.check(sink);
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(sink.has(Code::kPointCollision)) << sink.summary();

  DiagnosticSink fresh_sink(256);
  Checker fresh(t.g, t.geom);
  CheckReport fresh_rep = fresh.check(fresh_sink);
  EXPECT_EQ(rep.error, fresh_rep.error);
  EXPECT_EQ(rep.points, fresh_rep.points);
  EXPECT_EQ(rendered(sink), rendered(fresh_sink));
}

TEST(CheckerApi, CollisionReportedOncePerEdgePairAtLowestPoint) {
  Tall t;
  // Edge 4 runs over group 3's whole track, then crosses it again from a
  // vertical stub: many shared points, one edge pair.
  t.geom.segs.push_back({2, 9, 8, 9, 1, 4});
  t.geom.segs.push_back({5, 8, 5, 10, 1, 4});
  DiagnosticSink sink(256);
  CheckReport rep = Checker(t.g, t.geom).check(sink);
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(sink.count(Code::kPointCollision), 1u) << sink.summary();
  const Diagnostic& d = *sink.first();
  EXPECT_EQ(d.code, Code::kPointCollision);
  EXPECT_EQ(d.edge, 3u);
  EXPECT_EQ(d.edge2, 4u);
  EXPECT_EQ(std::tuple(d.x, d.y, d.layer),
            std::tuple(2u, 9u, std::uint16_t{1}));
}

TEST(CheckerApi, PublishesGridPointGauges) {
  obs::MetricsRegistry reg;
  reg.install();
  Tall t;
  CheckReport rep = Checker(t.g, t.geom).check();
  obs::MetricsRegistry::uninstall();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(reg.gauge("grid.points").value_or(-1),
            static_cast<double>(rep.points));
  EXPECT_EQ(reg.gauge("grid.peak_occupancy").value_or(-1),
            static_cast<double>(rep.points));
}

/// Work follows records, not wire length: 1000 edges, each a single
/// full-width run on a 10^6-wide grid (about 10^9 claimed points), check in
/// well under the test's ctest TIMEOUT. A point-expanding checker would
/// materialize every one of those points.
TEST(CheckerApi, FullWidthRunsCheckInRecordTime) {
  constexpr std::uint32_t kEdges = 1000;
  constexpr std::uint32_t kWidth = 1000000;
  Graph g{2 * kEdges};
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = kWidth;
  geom.height = kEdges;
  for (std::uint32_t i = 0; i < kEdges; ++i) {
    g.add_edge(2 * i, 2 * i + 1);
    geom.boxes.push_back({0, i, 1, 1, 2 * i});
    geom.boxes.push_back({kWidth - 1, i, 1, 1, 2 * i + 1});
    geom.segs.push_back({0, i, kWidth - 1, i, 1, i});
  }
  CheckReport rep = Checker(g, geom).check();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.points, std::uint64_t{kEdges} * kWidth);
}

TEST(CheckerApi, FirstFailureConvenienceCarriesError) {
  Fixture f;
  f.geom.segs.clear();
  CheckReport rep = Checker(f.g, f.geom).check();
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.error.empty());
  EXPECT_FALSE(static_cast<bool>(rep));
}

}  // namespace
}  // namespace mlvl
