// Differential proof of the index-backed repair router and box lookups
// against the point-hashing references (repair_oracle.hpp): across the fault
// matrix on four families, three layer counts and both via rules, across
// random small layouts (same-edge overlapping runs, collisions, stacked
// boxes) and under a search budget that trips, repaired segments and vias
// (in order), every RepairReport field, and the knock-knee and
// terminal-riser findings must be byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "core/geometry_index.hpp"
#include "core/multilayer.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/ghc_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"
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
};

/// Repair `geom` with production and reference; true when both leave the
/// same geometry and report.
bool same_repair(const Graph& g, const LayoutGeometry& geom,
                 const RepairOptions& opt, const std::string& ctx, Tally& t) {
  LayoutGeometry got_geom = geom, want_geom = geom;
  const RepairReport got = robustness::repair_layout(g, got_geom, opt);
  const RepairReport want = oracle::repair_points(g, want_geom, opt);
  ++t.cases;
  t.rerouted += static_cast<int>(got.rerouted.size());
  t.failed += static_cast<int>(got.failed.size());
  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (cond) return;
    ADD_FAILURE() << ctx << ": " << what << " differs";
    ok = false;
  };
  check(render(got_geom) == render(want_geom), "repaired geometry");
  check(got.ok == want.ok, "ok");
  check(got.passes == want.passes, "passes");
  check(got.ripped == want.ripped, "ripped");
  check(got.rerouted == want.rerouted, "rerouted");
  check(got.failed == want.failed, "failed");
  check(fields(got.unrepairable) == fields(want.unrepairable), "unrepairable");
  check(fields(got.remaining) == fields(want.remaining), "remaining");
  if (!ok) ++t.disagreements;
  return ok;
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

// ---- Random small layouts ------------------------------------------------

struct Random {
  Graph g{0};
  LayoutGeometry geom;
};

/// A random small layout whose frame is usually valid (disjoint in-bounds
/// boxes, one per node, on layer 1 or stacked on higher layers) and whose
/// wiring is random walks of runs and vias: collisions, thefts and gaps for
/// repair to fix, and runs that overlap runs of the same edge (legal, so
/// they stay in the layout while other edges route around them).
Random random_layout(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::uint32_t lo, std::uint32_t hi) {  // inclusive
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };
  auto chance = [&](std::uint32_t pct) { return pick(1, 100) <= pct; };

  Random r;
  LayoutGeometry& geom = r.geom;
  geom.width = pick(4, 14);
  geom.height = pick(4, 14);
  geom.num_layers = static_cast<std::uint16_t>(pick(1, 4));
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
      b.w = pick(1, 4);
      b.h = pick(1, 4);
      b.x = pick(0, W - b.w);
      b.y = pick(0, H - b.h);
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
    std::uint32_t x = pick(0, W - 1), y = pick(0, H - 1), z = pick(1, L);
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
      const std::uint32_t n = horizontal ? pick(0, W - 1) : pick(0, H - 1);
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

// ---- Index edits ----------------------------------------------------------

/// Random runs and columns, claimed at build time and then one by one,
/// overlapping freely: every grid point must answer as a point set does.
TEST(RepairOracle, IndexEditsMatchPointSet) {
  int mismatches = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&](std::uint32_t lo, std::uint32_t hi) {
      return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
    };
    constexpr std::uint32_t kSide = 12, kLayers = 4;
    std::array<char, kSide * kSide * (kLayers + 1)> want{};
    auto cell = [&](std::uint32_t x, std::uint32_t y,
                    std::uint32_t z) -> char& {
      return want[(z * kSide + y) * kSide + x];
    };
    auto random_seg = [&] {
      const std::uint32_t x = pick(0, kSide - 1), y = pick(0, kSide - 1);
      const auto z = static_cast<std::uint16_t>(pick(1, kLayers));
      const std::uint32_t len = pick(0, kSide - 1);
      return pick(0, 1) ? WireSeg{x, y, std::min(kSide - 1, x + len), y, z, 0}
                        : WireSeg{x, y, x, std::min(kSide - 1, y + len), z, 0};
    };
    auto claim_seg = [&](const WireSeg& s) {
      for (std::uint32_t y = s.y1; y <= s.y2; ++y)
        for (std::uint32_t x = s.x1; x <= s.x2; ++x) cell(x, y, s.layer) = 1;
    };
    LayoutGeometry geom;
    geom.width = geom.height = kSide;
    geom.num_layers = kLayers;
    for (std::uint32_t i = 0, n = pick(0, 20); i < n; ++i) {
      geom.segs.push_back(random_seg());
      claim_seg(geom.segs.back());
    }
    GeometryIndex index(geom, ViaRule::kBlocking);
    for (std::uint32_t i = 0, n = pick(1, 40); i < n; ++i) {
      if (pick(0, 1)) {
        const WireSeg s = random_seg();
        index.add_seg(s);
        claim_seg(s);
      } else {
        const std::uint32_t x = pick(0, kSide - 1), y = pick(0, kSide - 1);
        const std::uint32_t z1 = pick(1, kLayers), z2 = pick(z1, kLayers);
        index.add_column(x, y, z1, z2);
        for (std::uint32_t z = 1; z <= kLayers; ++z)
          if (z >= z1 && z <= z2) cell(x, y, z) = 1;
      }
    }
    for (std::uint32_t z = 1; z <= kLayers; ++z)
      for (std::uint32_t y = 0; y < kSide; ++y)
        for (std::uint32_t x = 0; x < kSide; ++x)
          if (index.occupied(x, y, z) != (cell(x, y, z) != 0)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
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
      same_repair(f.o.graph, geom,
                  {.rule = ViaRule::kBlocking, .max_search_cells = budget},
                  "budget " + std::to_string(budget) + " seed " +
                      std::to_string(seed),
                  t);
    }
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const Random r = random_layout(seed);
    same_repair(r.g, r.geom, {.max_search_cells = seed % 40},
                "random budget seed " + std::to_string(seed), t);
  }
  EXPECT_EQ(t.disagreements, 0);
  EXPECT_GT(t.failed, 20);    // the budget tripped
  EXPECT_GT(t.rerouted, 20);  // and sometimes sufficed
}

}  // namespace
}  // namespace mlvl
