// mlvl-lint test suite: registry stability, per-rule detection on handmade
// geometries, config/baseline policy, and — the load-bearing half — proof
// that every family construction the repo emits is lint-clean at every L it
// supports (the linter's discipline rules encode exactly what realize()
// promises, so a finding here is a bug in one or the other).
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/lint.hpp"
#include "core/checker.hpp"
#include "core/io.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/cluster_layout.hpp"
#include "layout/folded_hc_layout.hpp"
#include "layout/cayley_layout.hpp"
#include "layout/ghc_layout.hpp"
#include "layout/hsn_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/isn_layout.hpp"
#include "layout/kary_layout.hpp"
#include "obs/metrics.hpp"
#include "topology/ring.hpp"

namespace mlvl {
namespace {

using analysis::LintBaseline;
using analysis::LintConfig;
using analysis::LintRule;
using analysis::LintStats;
using analysis::lint_layout;

// --- shared helpers ---------------------------------------------------------

/// Config with every rule disabled except `r`: per-rule tests must not
/// trip on the scaffolding (a 3-point test frame has bbox slack, etc.).
LintConfig only(LintRule r) {
  LintConfig cfg;
  cfg.enabled.fill(false);
  cfg.enabled[static_cast<std::size_t>(r)] = true;
  return cfg;
}

std::size_t hits(const LintStats& s, LintRule r) {
  return s.per_rule[static_cast<std::size_t>(r)];
}

Graph two_node_graph() {
  Graph g(2);
  g.add_edge(0, 1);
  return g;
}

/// Realize at each L, assert checker-valid, then assert zero lint findings
/// under the layout's own via rule.
void expect_lint_clean(const Orthogonal2Layer& o,
                       std::initializer_list<std::uint32_t> Ls) {
  ASSERT_TRUE(o.is_valid());
  for (std::uint32_t L : Ls) {
    MultilayerLayout ml = realize(o, {.L = L});
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    ASSERT_TRUE(res.ok) << "L=" << L << ": " << res.error;
    LintConfig cfg;
    cfg.via_rule = ml.required_rule;
    DiagnosticSink sink(256);
    LintStats stats = lint_layout(o.graph, ml.geom, cfg, sink);
    EXPECT_TRUE(stats.clean()) << "L=" << L << ": " << sink.summary();
    EXPECT_EQ(stats.suppressed, 0u) << "L=" << L;
  }
}

// --- registry ---------------------------------------------------------------

TEST(LintRegistry, CoversEveryRuleInOrder) {
  auto reg = analysis::lint_registry();
  ASSERT_EQ(reg.size(), analysis::kNumLintRules);
  for (std::size_t i = 0; i < reg.size(); ++i)
    EXPECT_EQ(static_cast<std::size_t>(reg[i].rule), i);
}

TEST(LintRegistry, IdsAreStableAndMatchCodeNames) {
  // These ids are the public contract (baselines, -disable, test labels):
  // renaming one silently invalidates every existing baseline file.
  const char* const expected[] = {
      "layer-parity",       "turn-via-group",  "via-span-wide",
      "thompson-knock-knee", "terminal-riser-offtrack",
      "zero-length-seg",    "mergeable-runs",  "redundant-via",
      "dead-track",         "bbox-slack",
  };
  auto reg = analysis::lint_registry();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    EXPECT_STREQ(reg[i].id, expected[i]);
    EXPECT_STREQ(reg[i].id, code_name(reg[i].code));
    auto round = analysis::lint_rule_from_id(reg[i].id);
    ASSERT_TRUE(round.has_value()) << reg[i].id;
    EXPECT_EQ(*round, reg[i].rule);
  }
  EXPECT_FALSE(analysis::lint_rule_from_id("no-such-rule").has_value());
}

// --- discipline rules on handmade geometries --------------------------------

TEST(LintRules, LayerParityFlagsMisplacedRuns) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 8;
  geom.segs.push_back({0, 0, 3, 0, /*layer=*/2, 0});  // horizontal on even
  geom.segs.push_back({5, 0, 5, 3, /*layer=*/3, 0});  // vertical on odd
  geom.segs.push_back({0, 2, 3, 2, /*layer=*/3, 0});  // fine
  geom.segs.push_back({7, 0, 7, 3, /*layer=*/4, 0});  // fine
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kLayerParity), sink);
  EXPECT_EQ(hits(s, LintRule::kLayerParity), 2u);
  EXPECT_EQ(sink.count(Code::kLintLayerParity), 2u);
}

TEST(LintRules, LayerParityAllowsOddTopVerticalGroup) {
  // Odd L: the unpaired vertical group legally rides the top (odd) layer.
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 5;
  geom.width = geom.height = 8;
  geom.segs.push_back({5, 0, 5, 3, /*layer=*/5, 0});
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kLayerParity), sink);
  EXPECT_EQ(s.reported, 0u);
  // The same run with an even layer count is a finding.
  geom.num_layers = 6;
  sink.clear();
  s = lint_layout(g, geom, only(LintRule::kLayerParity), sink);
  EXPECT_EQ(hits(s, LintRule::kLayerParity), 1u);
}

TEST(LintRules, TurnViaGroupFlagsCrossGroupVias) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 6;
  geom.width = geom.height = 8;
  geom.vias.push_back({0, 0, 2, 3, 0});  // straddles groups 1 and 2
  geom.vias.push_back({1, 0, 3, 4, 0});  // group 2: fine
  geom.vias.push_back({2, 0, 1, 2, 0});  // terminal riser: not a turn via
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kTurnViaGroup), sink);
  EXPECT_EQ(hits(s, LintRule::kTurnViaGroup), 1u);
}

TEST(LintRules, TurnViaGroupAllowsOddTopJunction) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 5;
  geom.width = geom.height = 8;
  geom.vias.push_back({0, 0, 3, 5, 0});  // documented odd-L junction via
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kTurnViaGroup), sink);
  EXPECT_EQ(s.reported, 0u);
  // Same span in an even-L layout is a cross-group via.
  geom.num_layers = 6;
  sink.clear();
  s = lint_layout(g, geom, only(LintRule::kTurnViaGroup), sink);
  EXPECT_EQ(hits(s, LintRule::kTurnViaGroup), 1u);
}

TEST(LintRules, ViaSpanWideOnlyUnderBlockingRule) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 6;
  geom.width = geom.height = 8;
  geom.vias.push_back({0, 0, 3, 5, 0});   // two boundaries
  geom.vias.push_back({1, 0, 3, 4, 0});   // one boundary: fine
  geom.vias.push_back({2, 0, 1, 4, 0});   // terminal riser: exempt
  LintConfig cfg = only(LintRule::kViaSpanWide);
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, cfg, sink);
  EXPECT_EQ(hits(s, LintRule::kViaSpanWide), 1u);
  cfg.via_rule = ViaRule::kTransparent;  // declared stacked-via target
  sink.clear();
  s = lint_layout(g, geom, cfg, sink);
  EXPECT_EQ(s.reported, 0u);
}

TEST(LintRules, KnockKneeFlagsSharedBendAtTwoLayers) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = geom.height = 8;
  // Edge 0 bends at (2,2) on layer 1; edge 1 bends there on layer 2. The
  // checker sees two disjoint layers; physically both wires turn on the
  // same grid vertex — the classic knock-knee.
  geom.segs.push_back({0, 2, 2, 2, 1, 0});
  geom.segs.push_back({2, 2, 2, 5, 2, 1});
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kThompsonKnockKnee), sink);
  ASSERT_EQ(hits(s, LintRule::kThompsonKnockKnee), 1u);
  const Diagnostic& d = sink.diagnostics().front();
  EXPECT_EQ(d.edge, 0u);
  EXPECT_EQ(d.edge2, 1u);
  // One edge turning on its own (H meets V) is not a knock-knee.
  geom.segs[1].edge = 0;
  sink.clear();
  s = lint_layout(g, geom, only(LintRule::kThompsonKnockKnee), sink);
  EXPECT_EQ(s.reported, 0u);
}

TEST(LintRules, KnockKneeOnlyAppliesToTwoLayerModel) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  LayoutGeometry geom;
  geom.num_layers = 4;  // multilayer model: bends on distinct layers are fine
  geom.width = geom.height = 8;
  geom.segs.push_back({0, 2, 2, 2, 1, 0});
  geom.segs.push_back({2, 2, 2, 5, 2, 1});
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kThompsonKnockKnee), sink);
  EXPECT_EQ(s.reported, 0u);
}

TEST(LintRules, TerminalRiserInteriorLanding) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 8;
  geom.boxes.push_back({0, 0, 4, 4, 0, 1});
  geom.vias.push_back({2, 2, 1, 2, 0});  // lands mid-box
  geom.vias.push_back({0, 2, 1, 2, 0});  // perimeter terminal: fine
  DiagnosticSink sink(16);
  LintStats s =
      lint_layout(g, geom, only(LintRule::kTerminalRiserOfftrack), sink);
  ASSERT_EQ(hits(s, LintRule::kTerminalRiserOfftrack), 1u);
  EXPECT_EQ(sink.diagnostics().front().node, 0u);
}

// --- canonical-form rules on handmade geometries ----------------------------

TEST(LintRules, ZeroLengthSeg) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = geom.height = 8;
  geom.segs.push_back({3, 3, 3, 3, 1, 0});  // degenerate stub
  geom.segs.push_back({0, 0, 4, 0, 1, 0});
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kZeroLengthSeg), sink);
  EXPECT_EQ(hits(s, LintRule::kZeroLengthSeg), 1u);
}

TEST(LintRules, MergeableRunsAbuttingAndOverlapping) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = geom.height = 16;
  geom.segs.push_back({0, 0, 3, 0, 1, 0});
  geom.segs.push_back({4, 0, 6, 0, 1, 0});   // abuts the first
  geom.segs.push_back({8, 0, 12, 0, 1, 0});  // gap of one point: fine
  geom.segs.push_back({0, 2, 0, 4, 2, 0});
  geom.segs.push_back({0, 3, 0, 6, 2, 0});   // overlaps vertically
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kMergeableRuns), sink);
  EXPECT_EQ(hits(s, LintRule::kMergeableRuns), 2u);
}

TEST(LintRules, MergeableRunsIgnoresOtherEdgesAndLayers) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 16;
  geom.segs.push_back({0, 0, 3, 0, 1, 0});
  geom.segs.push_back({4, 0, 6, 0, 1, 1});  // different edge
  geom.segs.push_back({4, 0, 6, 0, 3, 0});  // different layer
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kMergeableRuns), sink);
  EXPECT_EQ(s.reported, 0u);
}

TEST(LintRules, RedundantViaOverlapAndExactDuplicate) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 6;
  geom.width = geom.height = 8;
  geom.vias.push_back({0, 0, 1, 2, 0});
  geom.vias.push_back({0, 0, 2, 3, 0});  // overlapping column
  geom.vias.push_back({1, 0, 3, 4, 0});
  geom.vias.push_back({1, 0, 3, 4, 0});  // exact duplicate
  geom.vias.push_back({2, 0, 1, 2, 0});
  geom.vias.push_back({2, 0, 4, 5, 0});  // gap in z: fine
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kRedundantVia), sink);
  EXPECT_EQ(hits(s, LintRule::kRedundantVia), 2u);
}

TEST(LintRules, DeadTrackReportsGapRuns) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 8;
  geom.height = 1;
  geom.segs.push_back({0, 0, 1, 0, 1, 0});
  geom.segs.push_back({5, 0, 7, 0, 1, 0});  // columns 2..4 dead
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kDeadTrack), sink);
  ASSERT_EQ(hits(s, LintRule::kDeadTrack), 1u);
  EXPECT_NE(sink.diagnostics().front().detail.find("2..4"),
            std::string::npos);
}

TEST(LintRules, BboxSlackReportsMargins) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 8;
  geom.height = 4;
  geom.segs.push_back({1, 0, 3, 0, 1, 0});  // left=1, right=4, bottom=3
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, only(LintRule::kBboxSlack), sink);
  ASSERT_EQ(hits(s, LintRule::kBboxSlack), 1u);
  // A frame tight to content is quiet.
  geom.width = 4;
  geom.height = 1;
  geom.segs[0] = {0, 0, 3, 0, 1, 0};
  sink.clear();
  s = lint_layout(g, geom, only(LintRule::kBboxSlack), sink);
  EXPECT_EQ(s.reported, 0u);
}

// --- config and baseline policy ---------------------------------------------

// --- linear work on large crafted input -----------------------------------

// 10^4 boxes and 10^5 vias, read as .mlvl text: knock-knee and
// terminal-riser look each point up in the box index instead of scanning
// all boxes (10^9 box tests), so the lookups examine O(1) box entries per
// query. Work counters, not wall time, make the bound exact.
TEST(LintScale, TenThousandBoxesHundredThousandViasLintInLinearWork) {
  constexpr std::uint32_t kSide = 100, kPitch = 6, kBoxes = kSide * kSide;
  std::ostringstream os;
  os << "mlvl-graph 1\nnodes " << kBoxes << "\n";
  for (std::uint32_t n = 0; n + 1 < kBoxes; n += 2)
    os << "edge " << n << " " << n + 1 << "\n";
  os << "mlvl-geom 1\ndims " << kSide * kPitch << " " << kSide * kPitch
     << " 2\n";
  for (std::uint32_t n = 0; n < kBoxes; ++n)
    os << "box " << n << " " << (n % kSide) * kPitch << " "
       << (n / kSide) * kPitch << " 4 4 1\n";
  std::size_t segs = 0, vias = 0, interior = 0;
  for (std::uint32_t n = 0; n < kBoxes; ++n) {
    const std::uint32_t x = (n % kSide) * kPitch, y = (n / kSide) * kPitch;
    const std::uint32_t e = n / 2;
    // Ten vias per box: two land inside it, eight on its perimeter or in
    // the channel beside it.
    for (std::uint32_t i = 0; i < 10; ++i) {
      const std::uint32_t vx = x + (i < 2 ? 1 + i : i % 6);
      const std::uint32_t vy = y + (i < 2 ? 1 + i : (i < 6 ? 0 : 4));
      os << "via " << e << " " << vx << " " << vy << " 1 2\n";
      ++vias;
      interior += i < 2;
    }
    // A bend beside each box, shared with the next box's edge.
    os << "seg " << e << " " << x + 4 << " " << y << " " << x + 5 << " " << y
       << " 1\n";
    os << "seg " << (e + 1) % (kBoxes / 2) << " " << x + 5 << " " << y << " "
       << x + 5 << " " << y + 3 << " 2\n";
    segs += 2;
  }
  std::istringstream is(os.str());
  auto loaded = io::parse_layout(is);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->geom.boxes.size(), kBoxes);
  ASSERT_EQ(loaded->geom.vias.size(), vias);

  obs::MetricsRegistry reg;
  reg.install();
  LintConfig cfg = only(LintRule::kTerminalRiserOfftrack);
  cfg.enabled[static_cast<std::size_t>(LintRule::kThompsonKnockKnee)] = true;
  DiagnosticSink sink(std::size_t{1} << 20);
  const LintStats stats = lint_layout(loaded->graph, loaded->geom, cfg, sink);
  obs::MetricsRegistry::uninstall();

  EXPECT_EQ(hits(stats, LintRule::kTerminalRiserOfftrack), interior);
  EXPECT_EQ(hits(stats, LintRule::kThompsonKnockKnee), kBoxes);
  // Every box sits in one band; each lookup examines at most two entries.
  EXPECT_LE(reg.counter("lint.index.built"), kBoxes);
  EXPECT_LE(reg.counter("lint.index.probes"), 2 * (vias + 2 * segs));
}

TEST(LintPolicy, DisableSilencesARule) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 8;
  geom.segs.push_back({0, 0, 3, 0, 2, 0});  // layer-parity finding
  LintConfig cfg = only(LintRule::kLayerParity);
  cfg.disable(LintRule::kLayerParity);
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, cfg, sink);
  EXPECT_EQ(s.reported, 0u);
  EXPECT_EQ(s.suppressed, 0u);  // disabled != suppressed
}

TEST(LintPolicy, BaselineSuppressesExactFingerprint) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 8;
  geom.segs.push_back({0, 0, 3, 0, 2, 0});
  geom.segs.push_back({0, 2, 3, 2, 4, 0});  // second, different finding
  LintConfig cfg = only(LintRule::kLayerParity);
  // Learn the first finding's fingerprint, then re-lint with it baselined.
  DiagnosticSink probe(16);
  lint_layout(g, geom, cfg, probe);
  ASSERT_EQ(probe.size(), 2u);
  cfg.baseline.add(analysis::lint_fingerprint(probe.diagnostics()[0]));
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, cfg, sink);
  EXPECT_EQ(s.reported, 1u);
  EXPECT_EQ(s.suppressed, 1u);
}

TEST(LintPolicy, BaselineWildcardSuppressesWholeRule) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 8;
  geom.segs.push_back({0, 0, 3, 0, 2, 0});
  geom.segs.push_back({0, 2, 3, 2, 4, 0});
  LintConfig cfg = only(LintRule::kLayerParity);
  cfg.baseline.add("layer-parity *");
  DiagnosticSink sink(16);
  LintStats s = lint_layout(g, geom, cfg, sink);
  EXPECT_EQ(s.reported, 0u);
  EXPECT_EQ(s.suppressed, 2u);
  EXPECT_TRUE(s.clean());
}

TEST(LintPolicy, BaselineParseAndWriteRoundTrip) {
  std::istringstream in(
      "# comment line\n"
      "  layer-parity edge=3 at=(1,2,4)   # trailing comment\n"
      "\n"
      "dead-track *\n"
      "dead-track *\n");  // duplicate collapses
  LintBaseline b = LintBaseline::parse(in);
  EXPECT_EQ(b.size(), 2u);
  std::ostringstream out;
  b.write(out);
  std::istringstream again(out.str());
  EXPECT_EQ(LintBaseline::parse(again).size(), 2u);
  Diagnostic d;
  d.code = Code::kLintLayerParity;
  d.edge = 3;
  d.has_point = true;
  d.x = 1;
  d.y = 2;
  d.layer = 4;
  EXPECT_TRUE(b.suppresses(d));
  d.x = 5;  // different place: not suppressed
  EXPECT_FALSE(b.suppresses(d));
}

TEST(LintPolicy, FingerprintOmitsAbsentFields) {
  Diagnostic d;
  d.code = Code::kLintBboxSlack;
  EXPECT_EQ(analysis::lint_fingerprint(d), "bbox-slack");
  d.code = Code::kLintKnockKnee;
  d.edge = 1;
  d.edge2 = 2;
  d.has_point = true;
  d.x = 4;
  d.y = 7;
  d.layer = 2;
  EXPECT_EQ(analysis::lint_fingerprint(d),
            "thompson-knock-knee edge=1 edge2=2 at=(4,7,2)");
}

TEST(LintPolicy, ProducersStopAtSinkCapacity) {
  Graph g = two_node_graph();
  LayoutGeometry geom;
  geom.num_layers = 4;
  geom.width = geom.height = 64;
  for (std::uint32_t y = 0; y < 16; ++y)
    geom.segs.push_back({0, y, 3, y, 2, 0});  // 16 layer-parity findings
  DiagnosticSink sink(4);
  LintStats s = lint_layout(g, geom, only(LintRule::kLayerParity), sink);
  EXPECT_EQ(s.reported, 4u);
  EXPECT_EQ(sink.size(), 4u);
}

// --- every family construction is lint-clean --------------------------------

TEST(LintFamilies, KaryNatural) {
  expect_lint_clean(layout::layout_kary(3, 3), {2, 4, 6});
}

TEST(LintFamilies, KaryFolded) {
  expect_lint_clean(layout::layout_kary(4, 2, Ordering::kFolded), {2, 4});
}

TEST(LintFamilies, KaryOneDimension) {
  expect_lint_clean(layout::layout_kary(5, 1), {2, 4});
}

TEST(LintFamilies, KaryMesh) {
  expect_lint_clean(layout::layout_kary_mesh(4, 3), {2, 4});
}

TEST(LintFamilies, Hypercube) {
  expect_lint_clean(layout::layout_hypercube(4), {2, 4, 8});
}

TEST(LintFamilies, HypercubeOddL) {
  // Odd L exercises the unpaired-group exceptions in layer-parity,
  // turn-via-group, and via-span-wide (required_rule is kTransparent).
  expect_lint_clean(layout::layout_hypercube(4), {3, 5});
}

TEST(LintFamilies, GhcUniform) {
  expect_lint_clean(layout::layout_ghc(4, 2), {2, 4});
}

TEST(LintFamilies, GhcMixed) {
  expect_lint_clean(layout::layout_ghc({3, 4, 2}), {2, 4});
}

TEST(LintFamilies, FoldedHypercube) {
  expect_lint_clean(layout::layout_folded_hypercube(4), {2, 4});
}

TEST(LintFamilies, EnhancedCube) {
  expect_lint_clean(layout::layout_enhanced_cube(4, 99), {2, 4});
}

TEST(LintFamilies, Ccc) { expect_lint_clean(layout::layout_ccc(4), {2, 4, 8}); }

TEST(LintFamilies, ReducedHypercube) {
  expect_lint_clean(layout::layout_reduced_hypercube(4), {2, 4});
}

TEST(LintFamilies, Hsn) {
  expect_lint_clean(layout::layout_hsn(3, topo::make_ring(4)), {2, 4});
}

TEST(LintFamilies, Hhn) { expect_lint_clean(layout::layout_hhn(2, 3), {2, 4}); }

TEST(LintFamilies, Isn) { expect_lint_clean(layout::layout_isn(3, 3), {2, 4}); }

TEST(LintFamilies, Butterfly) {
  expect_lint_clean(layout::layout_butterfly(4), {2, 4});
}

TEST(LintFamilies, StructuredStarGraph) {
  expect_lint_clean(layout::layout_star_structured(4), {2, 4});
}

TEST(LintFamilies, KaryCluster) {
  expect_lint_clean(
      layout::layout_kary_cluster(3, 2, 4, topo::ClusterKind::kHypercube),
      {2, 4});
}

}  // namespace
}  // namespace mlvl
