// Structured diagnostics: the collect-all checker reports every violation
// with exact coordinates, the bounded sink degrades gracefully, the
// first-failure wrapper stays bit-compatible with the historical API, and
// the readers pin each parse failure to its input line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/checker.hpp"
#include "core/diagnostics.hpp"
#include "core/io.hpp"
#include "core/multilayer.hpp"

namespace mlvl {
namespace {

// 4 nodes in the corners of a 5x3 grid, two straight layer-1 wires.
//   n0 ----e0---- n1
//   n2 ----e1---- n3
struct Tiny {
  Graph g{4};
  LayoutGeometry geom;

  Tiny() {
    g.add_edge(0, 1);  // e0, top row
    g.add_edge(2, 3);  // e1, bottom row
    geom.num_layers = 3;
    geom.width = 5;
    geom.height = 3;
    geom.boxes = {{0, 0, 1, 1, 0, 1},
                  {4, 0, 1, 1, 1, 1},
                  {0, 2, 1, 1, 2, 1},
                  {4, 2, 1, 1, 3, 1}};
    geom.segs = {{0, 0, 4, 0, 1, 0}, {0, 2, 4, 2, 1, 1}};
  }
};

TEST(Diagnostics, ValidLayoutIsClean) {
  Tiny t;
  DiagnosticSink sink;
  const std::uint64_t points =
      Checker(t.g, t.geom, {.via_rule = ViaRule::kBlocking}).check(sink).points;
  EXPECT_TRUE(sink.empty()) << sink.summary();
  EXPECT_EQ(points, 10u);  // two 5-point wires
  EXPECT_EQ(sink.summary(), "clean");

  CheckReport res = Checker(t.g, t.geom).check();
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(res.error.empty());
  EXPECT_EQ(res.points, 10u);
}

TEST(Diagnostics, CollectsEveryViolationWithCoordinates) {
  Tiny t;
  // Three independent faults: a stray via of e1 lands on e0's track at
  // (2,0,1) (collision) and is not adjacent to e1's own wire (disconnects
  // e1); a freshly added edge e2 has no geometry at all (unrouted).
  t.g.add_edge(0, 3);
  t.geom.vias.push_back({2, 0, 1, 2, 1});

  DiagnosticSink sink;
  Checker(t.g, t.geom, {.via_rule = ViaRule::kBlocking}).check(sink).points;
  EXPECT_TRUE(sink.has(Code::kPointCollision)) << sink.summary();
  EXPECT_TRUE(sink.has(Code::kEdgeDisconnected)) << sink.summary();
  EXPECT_TRUE(sink.has(Code::kEdgeUnrouted)) << sink.summary();
  EXPECT_GE(sink.size(), 3u);

  // The collision names the exact grid point and both parties.
  bool found = false;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code != Code::kPointCollision) continue;
    found = true;
    EXPECT_TRUE(d.has_point);
    EXPECT_EQ(d.x, 2u);
    EXPECT_EQ(d.y, 0u);
    EXPECT_EQ(d.layer, 1u);
    EXPECT_EQ(std::min(d.edge, d.edge2), 0u);
    EXPECT_EQ(std::max(d.edge, d.edge2), 1u);
  }
  EXPECT_TRUE(found);
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == Code::kEdgeUnrouted) {
      EXPECT_EQ(d.edge, 2u);
    }
    if (d.code == Code::kEdgeDisconnected) {
      EXPECT_EQ(d.edge, 1u);
    }
  }
}

TEST(Diagnostics, FirstFailureWrapperKeepsLegacyMessages) {
  Tiny t;
  t.geom.vias.push_back({2, 0, 1, 2, 1});
  CheckReport res = Checker(t.g, t.geom).check();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("collision"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("(2,0,1)"), std::string::npos) << res.error;
}

TEST(Diagnostics, SinkIsBounded) {
  DiagnosticSink sink(2);
  EXPECT_TRUE(sink.report({.code = Code::kEdgeUnrouted, .edge = 0}));
  EXPECT_TRUE(sink.report({.code = Code::kEdgeUnrouted, .edge = 1}));
  EXPECT_TRUE(sink.full());
  EXPECT_FALSE(sink.report({.code = Code::kEdgeUnrouted, .edge = 2}));
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 1u);
  EXPECT_NE(sink.summary().find("2x edge-unrouted"), std::string::npos);
  EXPECT_NE(sink.summary().find("+1 more"), std::string::npos);
  sink.clear();
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(Diagnostics, CountsWarningsAndErrorsSeparately) {
  DiagnosticSink sink(8);
  EXPECT_TRUE(sink.report({.code = Code::kLintLayerParity,
                           .severity = Severity::kWarning}));
  EXPECT_TRUE(sink.report({.code = Code::kEdgeUnrouted, .edge = 0}));
  EXPECT_TRUE(sink.report({.code = Code::kLintDeadTrack,
                           .severity = Severity::kWarning}));
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.errors(), 1u);
  EXPECT_EQ(sink.warnings(), 2u);
  sink.clear();
  EXPECT_EQ(sink.errors(), 0u);
  EXPECT_EQ(sink.warnings(), 0u);
}

TEST(Diagnostics, ErrorEvictsNewestWarningAtCapacity) {
  // A capacity-1 sink fed a warning first must still surface the first
  // *error*: the historical first-failure contract is about errors, and a
  // full-of-warnings sink must never hide one.
  DiagnosticSink sink(1);
  EXPECT_TRUE(sink.report({.code = Code::kLintLayerParity,
                           .severity = Severity::kWarning}));
  EXPECT_TRUE(sink.full());
  EXPECT_TRUE(sink.report({.code = Code::kEdgeUnrouted, .edge = 3}));
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.first()->code, Code::kEdgeUnrouted);
  EXPECT_EQ(sink.dropped(), 1u);  // the evicted warning counts as dropped
  // A second error finds no warning to evict: the first error is kept.
  EXPECT_FALSE(sink.report({.code = Code::kEdgeDisconnected, .edge = 4}));
  EXPECT_EQ(sink.first()->code, Code::kEdgeUnrouted);
  EXPECT_EQ(sink.dropped(), 2u);
}

TEST(Diagnostics, WarningsAreDroppedAtCapacity) {
  DiagnosticSink sink(1);
  EXPECT_TRUE(sink.report({.code = Code::kEdgeUnrouted, .edge = 0}));
  EXPECT_FALSE(sink.report({.code = Code::kLintDeadTrack,
                            .severity = Severity::kWarning}));
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.first()->code, Code::kEdgeUnrouted);
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(Diagnostics, EvictionTargetsNewestWarning) {
  // With two buffered warnings the error replaces the newest one, keeping
  // the earlier (more actionable) warning stable.
  DiagnosticSink sink(2);
  EXPECT_TRUE(sink.report({.code = Code::kLintLayerParity,
                           .severity = Severity::kWarning}));
  EXPECT_TRUE(sink.report({.code = Code::kLintDeadTrack,
                           .severity = Severity::kWarning}));
  EXPECT_TRUE(sink.report({.code = Code::kEdgeUnrouted, .edge = 1}));
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.diagnostics()[0].code, Code::kLintLayerParity);
  EXPECT_EQ(sink.diagnostics()[1].code, Code::kEdgeUnrouted);
  EXPECT_EQ(sink.errors(), 1u);
  EXPECT_EQ(sink.warnings(), 1u);
}

TEST(Diagnostics, CheckerRespectsSinkCapacity) {
  Tiny t;
  // Unroute both edges: two violations, capacity for one.
  t.geom.segs.clear();
  DiagnosticSink sink(1);
  Checker(t.g, t.geom, {.via_rule = ViaRule::kBlocking}).check(sink).points;
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_TRUE(sink.full());
}

TEST(Diagnostics, TerminalTheftNamesThiefAndVictim) {
  Tiny t;
  // Re-aim e1's wire through n0's home row: it now runs through boxes of
  // nodes 0 and 1, neither of which is an endpoint of e1... but it would
  // also collide with e0. Cleaner: park a stub of e1 inside n0's box only.
  t.geom.segs[1] = {0, 0, 0, 0, 1, 1};  // single-point stub inside n0's box
  DiagnosticSink sink;
  Checker(t.g, t.geom, {.via_rule = ViaRule::kBlocking}).check(sink).points;
  ASSERT_TRUE(sink.has(Code::kTerminalTheft)) << sink.summary();
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code != Code::kTerminalTheft) continue;
    EXPECT_EQ(d.edge, 1u);
    EXPECT_EQ(d.node, 0u);
    EXPECT_NE(d.to_string().find("enters box"), std::string::npos);
  }
}

// ---- Parse diagnostics ----------------------------------------------------

std::string valid_text() {
  Tiny t;
  std::ostringstream os;
  io::write_graph(os, t.g);
  io::write_geometry(os, t.geom);
  return os.str();
}

TEST(Diagnostics, ParseRoundTrip) {
  std::istringstream is(valid_text());
  DiagnosticSink sink;
  auto loaded = io::parse_layout(is, &sink);
  ASSERT_TRUE(loaded.has_value()) << sink.summary();
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(loaded->graph.num_edges(), 2u);
  EXPECT_TRUE(Checker(loaded->graph, loaded->geom).check().ok);
}

TEST(Diagnostics, BadHeaderReportsLineOne) {
  std::istringstream is("mlvl-gruph 1\nnodes 2\n");
  DiagnosticSink sink;
  EXPECT_FALSE(io::parse_layout(is, &sink).has_value());
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.first()->code, Code::kParseBadHeader);
  EXPECT_EQ(sink.first()->line, 1u);
}

TEST(Diagnostics, BadRecordReportsItsLine) {
  // Line 4 has a three-field edge record.
  std::istringstream is("mlvl-graph 1\nnodes 4\nedge 0 1\nedge 2 3 7\n");
  DiagnosticSink sink;
  EXPECT_FALSE(io::parse_layout(is, &sink).has_value());
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.first()->code, Code::kParseBadRecord);
  EXPECT_EQ(sink.first()->line, 4u);
}

TEST(Diagnostics, BadValueReportsItsLine) {
  // Line 3: edge endpoint beyond the declared node count.
  std::istringstream is("mlvl-graph 1\nnodes 2\nedge 0 5\n");
  DiagnosticSink sink;
  EXPECT_FALSE(io::parse_layout(is, &sink).has_value());
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.first()->code, Code::kParseBadValue);
  EXPECT_EQ(sink.first()->line, 3u);
}

TEST(Diagnostics, GeometryErrorLineCountsAcrossSections) {
  // Corrupt one geometry record in the middle of a full blob; the reported
  // line must be its absolute 1-based position in the whole stream.
  std::string text = valid_text();
  const std::string needle = "seg 1 ";
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "seg oops ");
  const std::uint32_t expect_line = static_cast<std::uint32_t>(
      1 + std::count(text.begin(), text.begin() + pos, '\n'));

  std::istringstream is(text);
  DiagnosticSink sink;
  EXPECT_FALSE(io::parse_layout(is, &sink).has_value());
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.first()->code, Code::kParseBadRecord);
  EXPECT_EQ(sink.first()->line, expect_line);
}

TEST(Diagnostics, TrailingGarbageRejectedWithLine) {
  std::string text = valid_text() + "\nwat is this\n";
  const std::uint32_t garbage_line = static_cast<std::uint32_t>(
      1 + std::count(text.begin(),
                     text.begin() + static_cast<std::ptrdiff_t>(
                                        text.find("wat is this")),
                     '\n'));
  std::istringstream is(text);
  DiagnosticSink sink;
  EXPECT_FALSE(io::parse_layout(is, &sink).has_value());
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.first()->code, Code::kParseTrailingGarbage);
  EXPECT_EQ(sink.first()->line, garbage_line);
}

TEST(Diagnostics, LoadDistinguishesMissingFileFromParseFailure) {
  DiagnosticSink missing_sink;
  EXPECT_FALSE(io::load_layout("/nonexistent/dir/layout.mlvl", &missing_sink)
                   .has_value());
  ASSERT_EQ(missing_sink.size(), 1u);
  EXPECT_EQ(missing_sink.first()->code, Code::kFileMissing);

  const std::string path = ::testing::TempDir() + "mlvl_diag_corrupt.mlvl";
  {
    std::ofstream out(path);
    out << "mlvl-graph 2\n";
  }
  DiagnosticSink parse_sink;
  EXPECT_FALSE(io::load_layout(path, &parse_sink).has_value());
  ASSERT_EQ(parse_sink.size(), 1u);
  EXPECT_EQ(parse_sink.first()->code, Code::kParseBadHeader);
  EXPECT_EQ(parse_sink.first()->line, 1u);
  std::remove(path.c_str());
}

TEST(Diagnostics, NulloptApiStillWorks) {
  // The historical sink-less API: nullopt on failure, value on success,
  // no diagnostics required anywhere.
  std::istringstream bad("not a layout\n");
  EXPECT_FALSE(io::parse_layout(bad).has_value());
  std::istringstream good(valid_text());
  EXPECT_TRUE(io::parse_layout(good).has_value());
}

TEST(Diagnostics, CodeNamesAreStable) {
  EXPECT_STREQ(code_name(Code::kPointCollision), "point-collision");
  EXPECT_STREQ(code_name(Code::kParseTrailingGarbage),
               "parse-trailing-garbage");
  EXPECT_STREQ(code_name(Code::kFileMissing), "file-missing");
}

}  // namespace
}  // namespace mlvl
