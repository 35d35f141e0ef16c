// Rip-up and re-route repair: injected single-edge faults must come back
// checker-clean, frame violations must be reported unrepairable rather than
// papered over, and a genuinely unroutable edge must be reported as failed —
// graceful degradation, not silent success.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "core/checker.hpp"
#include "core/io.hpp"
#include "core/multilayer.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robustness/fault_injector.hpp"
#include "robustness/repair.hpp"

namespace mlvl {
namespace {

using robustness::FaultKind;

struct Fixture {
  Orthogonal2Layer o;
  MultilayerLayout ml;

  Fixture() : o(layout::layout_kary(3, 2)), ml(realize(o, {.L = 4})) {
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    EXPECT_TRUE(res.ok) << res.error;
  }
};

TEST(Repair, ValidLayoutIsLeftAlone) {
  Fixture f;
  LayoutGeometry geom = f.ml.geom;
  auto rep = robustness::repair_layout(f.o.graph, geom,
                                       {.rule = f.ml.required_rule});
  EXPECT_TRUE(rep.ok);
  EXPECT_TRUE(rep.ripped.empty());
  EXPECT_TRUE(rep.rerouted.empty());
  EXPECT_TRUE(rep.failed.empty());
  EXPECT_TRUE(rep.unrepairable.empty());
  EXPECT_TRUE(rep.remaining.empty());
}

TEST(Repair, RepairsEverySingleEdgeFaultClass) {
  // Each of these operators damages the wiring of one or two edges without
  // touching the layout frame; repair must restore a checker-clean layout.
  const FaultKind kinds[] = {
      FaultKind::kShiftSegmentOffTrack, FaultKind::kSwapSegmentLayer,
      FaultKind::kRelabelSegment,       FaultKind::kDiagonalSegment,
      FaultKind::kDropVia,              FaultKind::kDuplicateViaForeign,
      FaultKind::kTruncateViaSpan,      FaultKind::kInvertViaSpan,
      FaultKind::kUnrouteEdge,
  };
  Fixture f;
  for (FaultKind k : kinds) {
    bool tried = false;
    for (std::uint64_t seed : {1ull, 2ull, 5ull, 13ull}) {
      LayoutGeometry geom = f.ml.geom;
      auto fault = robustness::inject(k, f.o.graph, geom, seed);
      if (!fault) continue;
      tried = true;
      ASSERT_FALSE(Checker(f.o.graph, geom, {.via_rule = f.ml.required_rule})
                       .check().ok)
          << robustness::fault_name(k);

      auto rep = robustness::repair_layout(f.o.graph, geom,
                                           {.rule = f.ml.required_rule});
      EXPECT_TRUE(rep.ok)
          << robustness::fault_name(k) << " seed " << seed << " ("
          << fault->note << "): " << rep.failed.size() << " failed, "
          << rep.remaining.size() << " remaining";
      CheckReport res =
          Checker(f.o.graph, geom, {.via_rule = f.ml.required_rule}).check();
      EXPECT_TRUE(res.ok) << robustness::fault_name(k) << ": " << res.error;
      EXPECT_FALSE(rep.ripped.empty()) << robustness::fault_name(k);
      EXPECT_FALSE(rep.rerouted.empty()) << robustness::fault_name(k);
      EXPECT_TRUE(rep.unrepairable.empty()) << robustness::fault_name(k);
      break;  // one successful round-trip per fault class
    }
    EXPECT_TRUE(tried) << robustness::fault_name(k)
                       << " applied to no seed on this fixture";
  }
}

TEST(Repair, RepairsCompoundDamage) {
  Fixture f;
  LayoutGeometry geom = f.ml.geom;
  auto a = robustness::inject(FaultKind::kUnrouteEdge, f.o.graph, geom, 3);
  auto b = robustness::inject(FaultKind::kDropVia, f.o.graph, geom, 8);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  auto rep = robustness::repair_layout(f.o.graph, geom,
                                       {.rule = f.ml.required_rule});
  EXPECT_TRUE(rep.ok) << rep.remaining.size() << " remaining";
  EXPECT_GE(rep.rerouted.size(), 2u);
  EXPECT_TRUE(Checker(f.o.graph, geom, {.via_rule = f.ml.required_rule})
                  .check().ok);
}

TEST(Repair, FrameViolationsAreUnrepairable) {
  Fixture f;
  for (FaultKind k :
       {FaultKind::kOverlapNodeBoxes, FaultKind::kPushBoxOutOfBounds,
        FaultKind::kDuplicateNodeBox}) {
    LayoutGeometry geom = f.ml.geom;
    auto fault = robustness::inject(k, f.o.graph, geom, 1);
    ASSERT_TRUE(fault.has_value()) << robustness::fault_name(k);

    auto rep = robustness::repair_layout(f.o.graph, geom,
                                         {.rule = f.ml.required_rule});
    EXPECT_FALSE(rep.ok) << robustness::fault_name(k);
    ASSERT_FALSE(rep.unrepairable.empty()) << robustness::fault_name(k);
    // The declared code is among the frame violations (a duplicated box also
    // trips the count mismatch first, which is equally unrepairable).
    const bool declared = std::any_of(
        rep.unrepairable.begin(), rep.unrepairable.end(),
        [&](const Diagnostic& d) { return d.code == fault->expected; });
    EXPECT_TRUE(declared) << robustness::fault_name(k);
    // Re-routing never even starts: moving wires cannot fix the frame.
    EXPECT_TRUE(rep.rerouted.empty()) << robustness::fault_name(k);
    EXPECT_FALSE(rep.remaining.empty()) << robustness::fault_name(k);
  }
}

TEST(Repair, HonestlyReportsUnroutableEdge) {
  // A 4x1 single-layer strip: n1 and n2 sit between n0 and n3, the only edge
  // 0-3 is unrouted, and with L=1 there is no way around the foreign boxes.
  Graph g(4);
  g.add_edge(0, 3);
  LayoutGeometry geom;
  geom.num_layers = 1;
  geom.width = 4;
  geom.height = 1;
  geom.boxes = {{0, 0, 1, 1, 0, 1},
                {1, 0, 1, 1, 1, 1},
                {2, 0, 1, 1, 2, 1},
                {3, 0, 1, 1, 3, 1}};

  auto rep = robustness::repair_layout(g, geom, {.rule = ViaRule::kBlocking});
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.failed.size(), 1u);
  EXPECT_EQ(rep.failed[0], 0u);
  EXPECT_TRUE(rep.rerouted.empty());
  bool still_unrouted = false;
  for (const Diagnostic& d : rep.remaining)
    if (d.code == Code::kEdgeUnrouted && d.edge == 0) still_unrouted = true;
  EXPECT_TRUE(still_unrouted);
}

TEST(Repair, SameStripIsRoutableWithASecondLayer) {
  // The control for the blocked case above: one extra wiring layer gives the
  // router a way over the foreign boxes, and the repair must find it.
  Graph g(4);
  g.add_edge(0, 3);
  LayoutGeometry geom;
  geom.num_layers = 2;
  geom.width = 4;
  geom.height = 1;
  geom.boxes = {{0, 0, 1, 1, 0, 1},
                {1, 0, 1, 1, 1, 1},
                {2, 0, 1, 1, 2, 1},
                {3, 0, 1, 1, 3, 1}};

  auto rep = robustness::repair_layout(g, geom, {.rule = ViaRule::kBlocking});
  EXPECT_TRUE(rep.ok) << rep.remaining.size() << " remaining";
  ASSERT_EQ(rep.rerouted.size(), 1u);
  EXPECT_EQ(rep.rerouted[0], 0u);
  CheckReport res = Checker(g, geom, {.via_rule = ViaRule::kBlocking}).check();
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Repair, RepairedLayoutRoundTripsThroughSerialization) {
  Fixture f;
  LayoutGeometry geom = f.ml.geom;
  ASSERT_TRUE(
      robustness::inject(FaultKind::kUnrouteEdge, f.o.graph, geom, 11)
          .has_value());
  auto rep = robustness::repair_layout(f.o.graph, geom,
                                       {.rule = f.ml.required_rule});
  ASSERT_TRUE(rep.ok);

  std::ostringstream os;
  io::write_graph(os, f.o.graph);
  io::write_geometry(os, geom);
  std::istringstream is(os.str());
  DiagnosticSink sink;
  auto loaded = io::parse_layout(is, &sink);
  ASSERT_TRUE(loaded.has_value()) << sink.summary();
  CheckReport res =
      Checker(loaded->graph, loaded->geom, {.via_rule = f.ml.required_rule})
          .check();
  EXPECT_TRUE(res.ok) << res.error;
}

/// Repaired wires and every report field, as one comparable string.
std::string outcome(const LayoutGeometry& geom,
                    const robustness::RepairReport& rep) {
  std::ostringstream os;
  for (const WireSeg& s : geom.segs)
    os << 's' << s.edge << ':' << s.x1 << ',' << s.y1 << ',' << s.x2 << ','
       << s.y2 << ',' << s.layer << ' ';
  for (const Via& v : geom.vias)
    os << 'v' << v.edge << ':' << v.x << ',' << v.y << ',' << v.z1 << ','
       << v.z2 << ' ';
  os << "| ok " << rep.ok << " passes " << rep.passes;
  for (const auto* ids : {&rep.ripped, &rep.rerouted, &rep.failed}) {
    os << " |";
    for (EdgeId e : *ids) os << ' ' << e;
  }
  for (const auto* ds : {&rep.unrepairable, &rep.remaining}) {
    os << " |";
    for (const Diagnostic& d : *ds)
      os << ' ' << static_cast<int>(d.code) << '/' << d.edge << '/'
         << d.edge2 << '/' << d.x << ',' << d.y << ',' << d.layer;
  }
  return std::move(os).str();
}

std::size_t check_spans(const obs::TraceSession& session) {
  std::size_t n = 0;
  for (const obs::TraceEvent& ev : session.events())
    if (std::string_view(ev.name) == "check") ++n;
  return n;
}

// layout_tool --doctor hands its own check to repair. Given what a complete
// check of the same geometry reported, pass 1 checks nothing and the repair
// equals the one that checks for itself.
TEST(Repair, CallersCompleteCheckReplacesPassOne) {
  Fixture f;
  const robustness::RepairOptions opt{.rule = f.ml.required_rule};
  int handed = 0;
  for (FaultKind k : robustness::all_faults()) {
    if (robustness::is_text_fault(k)) continue;
    for (std::uint64_t seed : {1ull, 2ull, 5ull}) {
      LayoutGeometry geom = f.ml.geom;
      if (!robustness::inject(k, f.o.graph, geom, seed)) continue;
      const std::string ctx =
          std::string(robustness::fault_name(k)) + " seed " +
          std::to_string(seed);
      DiagnosticSink sink(opt.max_diagnostics);
      Checker(f.o.graph, geom, {.via_rule = opt.rule}).check(sink);
      ASSERT_EQ(sink.dropped(), 0u) << ctx;

      LayoutGeometry own = geom, given = geom;
      obs::TraceSession own_trace, given_trace;
      own_trace.install();
      const auto want = robustness::repair_layout(f.o.graph, own, opt);
      given_trace.install();
      const auto got = robustness::repair_layout(f.o.graph, given, opt,
                                                 &sink.diagnostics());
      obs::TraceSession::uninstall();
      EXPECT_EQ(outcome(given, got), outcome(own, want)) << ctx;
      EXPECT_EQ(check_spans(given_trace) + 1, check_spans(own_trace)) << ctx;
      ++handed;
    }
  }
  EXPECT_GT(handed, 40);
}

// The router buckets records under the 64 x 64 tiles they cross, so
// repairing one missing segment of a 150k-record, 14M-point layout costs
// bucket entries in proportion to the records, not the grid points.
TEST(Repair, OneMissingSegmentOnHypercube12BuildsIndexInRecordWork) {
  const Orthogonal2Layer o = layout::layout_hypercube(12);
  const MultilayerLayout ml = realize(o, {.L = 2});
  LayoutGeometry geom = ml.geom;
  const std::uint64_t records =
      geom.boxes.size() + geom.segs.size() + geom.vias.size();
  geom.segs.erase(geom.segs.begin() +
                  static_cast<std::ptrdiff_t>(geom.segs.size() / 2));

  obs::MetricsRegistry reg;
  reg.install();
  const auto rep =
      robustness::repair_layout(o.graph, geom, {.rule = ml.required_rule});
  obs::MetricsRegistry::uninstall();

  EXPECT_TRUE(rep.ok) << rep.remaining.size() << " remaining";
  EXPECT_EQ(rep.rerouted.size(), 1u);
  // One router, its buckets built once from the records, plus the
  // rerouted path.
  EXPECT_LE(reg.counter("repair.tile_refs"), 3 * records);
  EXPECT_GT(reg.counter("repair.tile_refs"), records / 2);
}

}  // namespace
}  // namespace mlvl
