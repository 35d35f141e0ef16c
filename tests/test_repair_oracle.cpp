// Differential proof of the goal-bounded tiled-bitmap repair router and the
// box lookups against the point-hashing references (repair_oracle.hpp):
// across the fault matrix on four families, three layer counts and both via
// rules, across random small layouts (same-edge overlapping runs,
// collisions, stacked boxes) and across layouts that span several 64 x 64
// router tiles (the doctor benchmark's layouts, random ones with boxes and
// runs on tile edges), repaired segments and vias (in order), every
// RepairReport field, and the knock-knee and terminal-riser findings must
// be byte-identical. Under a search budget that trips, production must
// equal the same-budget reference when that routes every ripped edge, and
// the reference with no budget when production does (budget_repair).
// On long-edge deletions in hypercube(10..12), too large for the point
// hashing, the router is held to a copy of the plain tiled BFS
// (bfs_oracle.hpp): the same bytes from a tenth of the cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.hpp"
#include "bfs_oracle.hpp"
#include "core/multilayer.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/ghc_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"
#include "obs/metrics.hpp"
#include "repair_oracle.hpp"
#include "robustness/fault_injector.hpp"
#include "robustness/repair.hpp"

namespace mlvl {
namespace {

using robustness::RepairOptions;
using robustness::RepairReport;

std::string fields(const Diagnostic& d) {
  return std::to_string(static_cast<int>(d.code)) + "/" +
         std::to_string(static_cast<int>(d.severity)) + "/" +
         std::to_string(d.has_point) + "/" + std::to_string(d.x) + "," +
         std::to_string(d.y) + "," + std::to_string(d.layer) + "/" +
         std::to_string(d.edge) + "/" + std::to_string(d.edge2) + "/" +
         std::to_string(d.node) + "/" + std::to_string(d.line) + "/" +
         d.detail;
}

std::vector<std::string> fields(const std::vector<Diagnostic>& ds) {
  std::vector<std::string> out;
  for (const Diagnostic& d : ds) out.push_back(fields(d));
  return out;
}

std::string render(const LayoutGeometry& geom) {
  std::ostringstream os;
  for (const WireSeg& s : geom.segs)
    os << 's' << s.edge << ':' << s.x1 << ',' << s.y1 << ',' << s.x2 << ','
       << s.y2 << ',' << s.layer << ' ';
  for (const Via& v : geom.vias)
    os << 'v' << v.edge << ':' << v.x << ',' << v.y << ',' << v.z1 << ','
       << v.z2 << ' ';
  return std::move(os).str();
}

struct Tally {
  int cases = 0, rerouted = 0, failed = 0, disagreements = 0;
  /// Budget cases the reference gave up on and production finished.
  int finished_under_budget = 0;
};

/// A repaired geometry and the report that came with it.
struct Repaired {
  LayoutGeometry geom;
  RepairReport rep;
};

Repaired production(const Graph& g, const LayoutGeometry& geom,
                    const RepairOptions& opt) {
  Repaired r{geom, {}};
  r.rep = robustness::repair_layout(g, r.geom, opt);
  return r;
}

Repaired reference(const Graph& g, const LayoutGeometry& geom,
                   const RepairOptions& opt) {
  Repaired r{geom, {}};
  r.rep = oracle::repair_points(g, r.geom, opt);
  return r;
}

/// True when both repairs left the same geometry and report; reports each
/// difference.
bool agree(const Repaired& got, const Repaired& want, const std::string& ctx) {
  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (cond) return;
    ADD_FAILURE() << ctx << ": " << what << " differs";
    ok = false;
  };
  check(render(got.geom) == render(want.geom), "repaired geometry");
  check(got.rep.ok == want.rep.ok, "ok");
  check(got.rep.passes == want.rep.passes, "passes");
  check(got.rep.ripped == want.rep.ripped, "ripped");
  check(got.rep.rerouted == want.rep.rerouted, "rerouted");
  check(got.rep.failed == want.rep.failed, "failed");
  check(fields(got.rep.unrepairable) == fields(want.rep.unrepairable),
        "unrepairable");
  check(fields(got.rep.remaining) == fields(want.rep.remaining), "remaining");
  return ok;
}

void tally(const Repaired& got, Tally& t) {
  ++t.cases;
  t.rerouted += static_cast<int>(got.rep.rerouted.size());
  t.failed += static_cast<int>(got.rep.failed.size());
}

/// Repair `geom` with production and reference; true when both leave the
/// same geometry and report.
bool same_repair(const Graph& g, const LayoutGeometry& geom,
                 const RepairOptions& opt, const std::string& ctx, Tally& t) {
  const Repaired got = production(g, geom, opt);
  tally(got, t);
  const bool ok = agree(got, reference(g, geom, opt), ctx);
  if (!ok) ++t.disagreements;
  return ok;
}

/// Repair `geom` under a search budget that may trip. Production's pruned
/// searches enter fewer cells than the reference's plain BFS, so a route
/// the budget cuts short in the reference can finish in production. Two
/// things hold all the same: when the reference routes every ripped edge,
/// production equals it; when production reports no failure, it equals the
/// reference run with no budget.
void budget_repair(const Graph& g, const LayoutGeometry& geom,
                   const RepairOptions& opt, const std::string& ctx,
                   Tally& t) {
  const Repaired got = production(g, geom, opt);
  tally(got, t);
  const Repaired want = reference(g, geom, opt);
  bool ok = true;
  if (want.rep.failed.empty()) ok = agree(got, want, ctx + " (same budget)");
  if (got.rep.failed.empty() && !want.rep.failed.empty()) {
    RepairOptions unbounded = opt;
    unbounded.max_search_cells = UINT64_MAX;
    ok = agree(got, reference(g, geom, unbounded), ctx + " (no budget)");
    ++t.finished_under_budget;
  }
  if (!ok) ++t.disagreements;
}

/// Production findings of one lint rule, in emission order.
std::vector<std::string> lint_findings(const Graph& g,
                                       const LayoutGeometry& geom,
                                       analysis::LintRule only) {
  analysis::LintConfig cfg;
  cfg.enabled.fill(false);
  cfg.enabled[static_cast<std::size_t>(only)] = true;
  DiagnosticSink sink(std::size_t{1} << 24);
  analysis::lint_layout(g, geom, cfg, sink);
  return fields(sink.diagnostics());
}

std::vector<std::string> stamped(std::vector<Diagnostic> ds, Code code) {
  for (Diagnostic& d : ds) {
    d.code = code;
    d.severity = Severity::kWarning;
  }
  return fields(ds);
}

/// Knock-knee and terminal-riser findings against the box scans.
bool same_lint(const Graph& g, const LayoutGeometry& geom,
               const std::string& ctx, int* findings = nullptr) {
  const auto knee =
      lint_findings(g, geom, analysis::LintRule::kThompsonKnockKnee);
  const auto riser =
      lint_findings(g, geom, analysis::LintRule::kTerminalRiserOfftrack);
  if (findings) *findings += static_cast<int>(knee.size() + riser.size());
  const bool knee_ok =
      knee == stamped(oracle::knock_knee_scan(geom), Code::kLintKnockKnee);
  const bool riser_ok = riser == stamped(oracle::terminal_riser_scan(geom),
                                         Code::kLintTerminalRiser);
  EXPECT_TRUE(knee_ok) << ctx << ": thompson-knock-knee differs";
  EXPECT_TRUE(riser_ok) << ctx << ": terminal-riser-offtrack differs";
  return knee_ok && riser_ok;
}

// ---- Fault matrix --------------------------------------------------------

struct Family {
  std::string name;
  Orthogonal2Layer o;
};

const std::vector<Family>& families() {
  static const std::vector<Family> out = [] {
    std::vector<Family> f;
    f.push_back({"hypercube(4)", layout::layout_hypercube(4)});
    f.push_back({"kary(3,2)", layout::layout_kary(3, 2)});
    f.push_back({"ghc(3,2)", layout::layout_ghc(3, 2)});
    f.push_back({"ccc(3)", layout::layout_ccc(3)});
    return f;
  }();
  return out;
}

constexpr std::uint64_t kSeeds[] = {1, 2, 17, 99};
constexpr std::uint32_t kLayers[] = {2, 3, 8};
constexpr ViaRule kRules[] = {ViaRule::kBlocking, ViaRule::kTransparent};

TEST(RepairOracle, FaultMatrixAgrees) {
  Tally t;
  for (robustness::FaultKind k : robustness::all_faults()) {
    if (robustness::is_text_fault(k)) continue;
    for (const Family& f : families())
      for (std::uint32_t L : kLayers) {
        const MultilayerLayout ml = realize(f.o, {.L = L});
        for (std::uint64_t seed : kSeeds) {
          LayoutGeometry geom = ml.geom;
          if (!robustness::inject(k, f.o.graph, geom, seed)) continue;
          const std::string ctx = f.name + " L=" + std::to_string(L) + " " +
                                  robustness::fault_name(k) + " seed " +
                                  std::to_string(seed);
          for (ViaRule rule : kRules)
            same_repair(f.o.graph, geom, {.rule = rule},
                        ctx + (rule == ViaRule::kBlocking ? " blocking"
                                                          : " transparent"),
                        t);
          same_lint(f.o.graph, geom, ctx);
        }
      }
  }
  EXPECT_EQ(t.disagreements, 0);
  EXPECT_GT(t.cases, 800);
  EXPECT_GT(t.rerouted, 800);
}

/// The benchmark's doctor layouts span several 64 x 64 router tiles, so
/// their searches cross tile edges. kStealTerminal rips every edge through
/// the stolen box.
TEST(RepairOracle, MultiTileFaultMatrixAgrees) {
  Tally t;
  const Family hypercube{"hypercube(7)", layout::layout_hypercube(7)};
  const Family kary{"kary(6,3)", layout::layout_kary(6, 3)};
  const std::pair<const Family*, std::uint32_t> layouts[] = {
      {&hypercube, 2}, {&hypercube, 8}, {&kary, 2}};
  for (const auto& [f, L] : layouts) {
    const MultilayerLayout ml = realize(f->o, {.L = L});
    EXPECT_GT(std::max(ml.geom.width, ml.geom.height), 64u) << f->name;
    for (robustness::FaultKind k :
         {robustness::FaultKind::kUnrouteEdge, robustness::FaultKind::kDropVia,
          robustness::FaultKind::kShiftSegmentOffTrack,
          robustness::FaultKind::kStealTerminal})
      for (std::uint64_t seed : {1, 2}) {
        LayoutGeometry geom = ml.geom;
        if (!robustness::inject(k, f->o.graph, geom, seed)) continue;
        const std::string ctx = f->name + " L=" + std::to_string(L) + " " +
                                robustness::fault_name(k) + " seed " +
                                std::to_string(seed);
        for (ViaRule rule : kRules)
          same_repair(f->o.graph, geom, {.rule = rule},
                      ctx + (rule == ViaRule::kBlocking ? " blocking"
                                                        : " transparent"),
                      t);
      }
  }
  EXPECT_EQ(t.disagreements, 0);
  EXPECT_GE(t.cases, 40);
  EXPECT_GT(t.rerouted, 60);
}

// ---- Random small layouts ------------------------------------------------

struct Random {
  Graph g{0};
  LayoutGeometry geom;
};

/// Cells next to the router's tile edges (tiles are 64 x 64 cells).
constexpr std::uint32_t kTileEdges[] = {63, 64, 127, 128};
constexpr std::uint16_t kTiledLayers[] = {1, 2, 3, 4, 8, 16, 64};

/// A random layout whose frame is usually valid (disjoint in-bounds boxes,
/// one per node, on layer 1 or stacked on higher layers) and whose wiring
/// is random walks of runs and vias: collisions, thefts and gaps for repair
/// to fix, and runs that overlap runs of the same edge (legal, so they stay
/// in the layout while other edges route around them). A small one fits
/// in one tile; a `tiled` one is 60-200 cells a side (never a whole number
/// of tiles) with up to 64 layers, and half its boxes and run ends sit on
/// a cell next to a tile edge.
Random random_layout(std::uint64_t seed, bool tiled = false) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint32_t lo, std::uint32_t hi) {  // inclusive
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };
  auto chance = [&](std::uint32_t pct) { return pick(1, 100) <= pct; };
  // The first cell of an extent of `len` cells in [0, n); in a tiled
  // layout, half the time one whose extent holds a tile-edge cell.
  auto place = [&](std::uint32_t len, std::uint32_t n) {
    if (tiled && chance(50)) {
      const std::uint32_t edge = kTileEdges[pick(0, 3)];
      const std::uint32_t lo = edge + 1 > len ? edge + 1 - len : 0;
      const std::uint32_t hi = std::min(edge, n - len);
      if (lo <= hi) return pick(lo, hi);
    }
    return pick(0, n - len);
  };

  Random r;
  LayoutGeometry& geom = r.geom;
  if (tiled) {
    auto side = [&] {
      const std::uint32_t n = pick(60, 200);
      return n % 64 == 0 ? n - 1 : n;
    };
    geom.width = side();
    geom.height = side();
    geom.num_layers = kTiledLayers[pick(0, 6)];
  } else {
    geom.width = pick(4, 14);
    geom.height = pick(4, 14);
    geom.num_layers = static_cast<std::uint16_t>(pick(1, 4));
  }
  const std::uint32_t W = geom.width, H = geom.height, L = geom.num_layers;

  const std::uint32_t nodes = pick(2, 6);
  r.g = Graph(nodes);
  for (std::uint32_t e = 0, n = pick(1, 7); e < n; ++e) {
    const std::uint32_t u = pick(0, nodes - 1);
    std::uint32_t v = pick(0, nodes - 1);
    if (v == u) v = (u + 1) % nodes;
    r.g.add_edge(u, v);
  }
  for (std::uint32_t n = 0; n < nodes; ++n) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      NodeBox b;
      b.node = n;
      b.w = pick(1, tiled ? 6 : 4);
      b.h = pick(1, tiled ? 6 : 4);
      b.x = place(b.w, W);
      b.y = place(b.h, H);
      b.layer = chance(80) ? std::uint16_t{1}
                           : static_cast<std::uint16_t>(pick(1, L));
      const bool clash = std::any_of(
          geom.boxes.begin(), geom.boxes.end(), [&](const NodeBox& o) {
            return o.layer == b.layer && o.x < b.x + b.w && b.x < o.x + o.w &&
                   o.y < b.y + b.h && b.y < o.y + o.h;
          });
      if (clash) continue;
      geom.boxes.push_back(b);
      break;
    }
  }

  for (EdgeId e = 0; e < r.g.num_edges(); ++e) {
    if (chance(15)) continue;  // unrouted
    std::uint32_t x = place(1, W), y = place(1, H), z = pick(1, L);
    for (std::uint32_t i = 0, steps = pick(1, 7); i < steps; ++i) {
      const std::uint32_t kind = L > 1 ? pick(0, 2) : pick(0, 1);
      if (kind == 2) {
        std::uint32_t z2 = pick(1, L);
        if (z2 == z) z2 = z == 1 ? 2 : z - 1;
        geom.vias.push_back({x, y, static_cast<std::uint16_t>(std::min(z, z2)),
                             static_cast<std::uint16_t>(std::max(z, z2)), e});
        z = z2;
        continue;
      }
      const bool horizontal = kind == 0;
      const std::uint32_t n = horizontal ? place(1, W) : place(1, H);
      const std::uint32_t at = horizontal ? x : y;
      const std::uint32_t lo = std::min(at, n), hi = std::max(at, n);
      auto run = [&](std::uint32_t a, std::uint32_t b) {
        return horizontal
                   ? WireSeg{a, y, b, y, static_cast<std::uint16_t>(z), e}
                   : WireSeg{x, a, x, b, static_cast<std::uint16_t>(z), e};
      };
      geom.segs.push_back(run(lo, hi));
      // A shorter run of the same edge inside this one: the line's sorted
      // order then holds a short interval after a long one.
      if (hi > lo + 1 && chance(40)) {
        const std::uint32_t a = pick(lo + 1, hi);
        geom.segs.push_back(run(a, pick(a, hi)));
      }
      (horizontal ? x : y) = n;
    }
  }
  if (chance(5)) geom.segs.push_back({0, 0, 1, 1, 1, 0});  // diagonal
  std::shuffle(geom.segs.begin(), geom.segs.end(), rng);
  std::shuffle(geom.vias.begin(), geom.vias.end(), rng);
  return r;
}

TEST(RepairOracle, RandomLayoutsAgree) {
  Tally t;
  for (std::uint64_t seed = 0; seed < 3000; ++seed) {
    const Random r = random_layout(seed);
    for (ViaRule rule : kRules)
      same_repair(r.g, r.geom, {.rule = rule},
                  "random seed " + std::to_string(seed), t);
  }
  EXPECT_EQ(t.disagreements, 0);
  EXPECT_GT(t.rerouted, 3000);
  EXPECT_GT(t.failed, 100);
}

/// Routes that find no path would search every cell of a 200 x 200 x 64
/// grid; the budget keeps the reference router's hash tables small. It
/// trips, so the cases are held to budget_repair's two properties.
TEST(RepairOracle, RandomTiledLayoutsAgree) {
  Tally t;
  for (std::uint64_t seed = 0; seed < 80; ++seed) {
    const Random r = random_layout(seed, /*tiled=*/true);
    for (ViaRule rule : kRules)
      budget_repair(r.g, r.geom, {.rule = rule, .max_search_cells = 1u << 16},
                    "tiled seed " + std::to_string(seed), t);
  }
  EXPECT_EQ(t.disagreements, 0);
  EXPECT_GT(t.rerouted, 300);
  EXPECT_GT(t.finished_under_budget, 0);
}

/// Under the transparent rule a via routed earlier in a pass still blocks
/// its whole column, in a tile the earlier search already filled: edge 0
/// climbs from layer 1 to layer 3 at x = 64, the first cell of the second
/// tile, and edge 1, on layer 2 from x = 63 to x = 65, must go around it.
TEST(RepairOracle, RoutedViaBlocksItsColumnInAFilledTile) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  LayoutGeometry geom;
  geom.width = 130;
  geom.height = 70;
  geom.num_layers = 3;
  geom.boxes = {{64, 5, 1, 1, 0, 1},
                {64, 5, 1, 1, 1, 3},
                {63, 5, 1, 1, 2, 2},
                {65, 5, 1, 1, 3, 2}};
  Tally t;
  ASSERT_TRUE(same_repair(g, geom, {.rule = ViaRule::kTransparent},
                          "routed via column", t));
  LayoutGeometry repaired = geom;
  const RepairReport rep = robustness::repair_layout(
      g, repaired, {.rule = ViaRule::kTransparent});
  EXPECT_TRUE(rep.ok);
  ASSERT_EQ(repaired.vias.size(), 1u);
  const Via& via = repaired.vias[0];
  EXPECT_EQ(via.edge, 0u);
  EXPECT_EQ(via.x, 64u);
  EXPECT_EQ(via.y, 5u);
  EXPECT_EQ(via.z1, 1u);
  EXPECT_EQ(via.z2, 3u);
  for (const WireSeg& s : repaired.segs)
    EXPECT_FALSE(s.layer == 2 && s.y1 <= 5 && 5 <= s.y2 && s.x1 <= 64 &&
                 64 <= s.x2)
        << "edge " << s.edge << " threads the routed via at (64, 5, 2)";
}

/// Random boxes with no frame discipline at all — overlapping, stacked,
/// empty, out of the grid, past 2^32 — against the box scans.
TEST(RepairOracle, RandomBoxesLintAgrees) {
  int findings = 0, mismatches = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&](std::uint32_t lo, std::uint32_t hi) {
      return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
    };
    LayoutGeometry geom;
    geom.width = geom.height = 16;
    geom.num_layers = static_cast<std::uint16_t>(pick(1, 3) == 1 ? 3 : 2);
    for (std::uint32_t i = 0, n = pick(0, 12); i < n; ++i) {
      NodeBox b{pick(0, 15), pick(0, 15), pick(0, 7), pick(0, 7), i,
                static_cast<std::uint16_t>(pick(0, 3))};
      if (pick(1, 30) == 1) b.x = UINT32_MAX - pick(0, 3);
      if (pick(1, 30) == 1) b.h = UINT32_MAX - pick(0, 3);
      geom.boxes.push_back(b);
    }
    for (std::uint32_t i = 0, n = pick(0, 30); i < n; ++i) {
      const std::uint32_t x = pick(0, 17), y = pick(0, 17);
      const auto z = static_cast<std::uint16_t>(pick(1, 2));
      const std::uint32_t len = pick(0, 4), e = pick(0, 5);
      if (pick(0, 1))
        geom.segs.push_back({x, y, x + len, y, z, e});
      else
        geom.segs.push_back({x, y, x, y + len, z, e});
    }
    for (std::uint32_t i = 0, n = pick(0, 30); i < n; ++i)
      geom.vias.push_back({pick(0, 17), pick(0, 17),
                           static_cast<std::uint16_t>(pick(0, 3)),
                           static_cast<std::uint16_t>(pick(0, 3)), pick(0, 5)});
    if (!same_lint(Graph(12), geom, "boxes seed " + std::to_string(seed),
                   &findings))
      ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(findings, 1000);
}

// ---- Search budget --------------------------------------------------------

TEST(RepairOracle, SearchBudgetTripsIdentically) {
  Tally t;
  const Family& f = families()[1];  // kary(3,2)
  const MultilayerLayout ml = realize(f.o, {.L = 2});
  for (std::uint64_t budget : {1u, 4u, 16u, 64u, 256u, 1024u})
    for (std::uint64_t seed : kSeeds) {
      LayoutGeometry geom = ml.geom;
      ASSERT_TRUE(robustness::inject(robustness::FaultKind::kUnrouteEdge,
                                     f.o.graph, geom, seed));
      budget_repair(f.o.graph, geom,
                    {.rule = ViaRule::kBlocking, .max_search_cells = budget},
                    "budget " + std::to_string(budget) + " seed " +
                        std::to_string(seed),
                    t);
    }
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const Random r = random_layout(seed);
    budget_repair(r.g, r.geom, {.max_search_cells = seed % 40},
                  "random budget seed " + std::to_string(seed), t);
  }
  EXPECT_EQ(t.disagreements, 0);
  EXPECT_GT(t.failed, 20);    // the budget tripped
  EXPECT_GT(t.rerouted, 20);  // and sometimes sufficed
  EXPECT_GT(t.finished_under_budget, 0);  // where the plain BFS's did not
}

/// The same on layouts whose searches span several tiles before the budget
/// trips.
TEST(RepairOracle, SearchBudgetTripsIdenticallyAcrossTiles) {
  Tally t;
  const Orthogonal2Layer o = layout::layout_hypercube(7);
  const MultilayerLayout ml = realize(o, {.L = 2});
  for (std::uint64_t budget : {64u, 1024u, 4096u, 16384u})
    for (std::uint64_t seed : kSeeds) {
      LayoutGeometry geom = ml.geom;
      ASSERT_TRUE(robustness::inject(robustness::FaultKind::kUnrouteEdge,
                                     o.graph, geom, seed));
      budget_repair(o.graph, geom,
                    {.rule = ViaRule::kBlocking, .max_search_cells = budget},
                    "hypercube(7) budget " + std::to_string(budget) +
                        " seed " + std::to_string(seed),
                    t);
    }
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const Random r = random_layout(seed, /*tiled=*/true);
    budget_repair(r.g, r.geom, {.max_search_cells = seed * 97 % 6000},
                  "tiled budget seed " + std::to_string(seed), t);
  }
  EXPECT_EQ(t.disagreements, 0);
  EXPECT_GT(t.failed, 10);
  EXPECT_GT(t.rerouted, 10);
  EXPECT_GT(t.finished_under_budget, 0);
}

// ---- Long edges at scale ---------------------------------------------------

/// Long edges make the plain BFS flood the grid around the source before it
/// reaches the far terminal. On hypercube(10..12) at L = 2 and 8, with one
/// edge unrouted at a time and with the `seg` records at 10%, 50% and 90%
/// of the list deleted together, the goal-bounded router must leave the
/// plain BFS's bytes and report, enter fewer cells in every case and at
/// most a tenth of the plain BFS's cells over each layout's cases (a work
/// count, not a timing).
TEST(RepairOracle, LongEdgeDeletionsAgree) {
  int cases = 0;
  for (std::uint32_t n : {10u, 11u, 12u}) {
    const Orthogonal2Layer o = layout::layout_hypercube(n);
    const EdgeId edges = o.graph.num_edges();
    for (std::uint32_t L : {2u, 8u}) {
      const std::string layout =
          "hypercube(" + std::to_string(n) + ") L=" + std::to_string(L);
      const MultilayerLayout ml = realize(o, {.L = L});
      const RepairOptions opt{.rule = ml.required_rule};
      std::vector<std::pair<std::string, LayoutGeometry>> faults;
      for (EdgeId e : {EdgeId{0}, edges / 2, edges - 1}) {
        LayoutGeometry geom = ml.geom;
        std::erase_if(geom.segs, [&](const WireSeg& s) { return s.edge == e; });
        std::erase_if(geom.vias, [&](const Via& v) { return v.edge == e; });
        faults.emplace_back("edge " + std::to_string(e) + " unrouted",
                            std::move(geom));
      }
      LayoutGeometry cut = ml.geom;
      const std::size_t segs = cut.segs.size();
      for (std::size_t tenth : {9u, 5u, 1u})
        cut.segs.erase(cut.segs.begin() +
                       static_cast<std::ptrdiff_t>(segs * tenth / 10));
      faults.emplace_back("segs at 10/50/90% deleted", std::move(cut));

      std::uint64_t cells = 0, plain_cells = 0;
      for (const auto& [what, geom] : faults) {
        const std::string ctx = layout + " " + what;
        obs::MetricsRegistry reg;
        reg.install();
        const Repaired got = production(o.graph, geom, opt);
        obs::MetricsRegistry::uninstall();
        Repaired want{geom, {}};
        std::uint64_t plain = 0;
        want.rep = oracle::repair_plain_bfs(o.graph, want.geom, opt, &plain);
        ++cases;
        EXPECT_TRUE(got.rep.ok) << ctx;
        EXPECT_FALSE(got.rep.rerouted.empty()) << ctx;
        agree(got, want, ctx);
        const std::uint64_t entered = reg.counter("repair.cells_visited");
        EXPECT_GT(entered, 0u) << ctx;
        EXPECT_LT(entered, plain) << ctx;
        cells += entered;
        plain_cells += plain;
      }
      EXPECT_LE(cells * 10, plain_cells)
          << layout << ": " << cells << " cells entered, plain BFS "
          << plain_cells;
    }
  }
  EXPECT_EQ(cases, 24);
}

}  // namespace
}  // namespace mlvl
