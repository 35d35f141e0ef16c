// Experiment T-claims — the four headline claims of Sec. 1, measured against
// the two baselines the paper names (folded Thompson layout, multilayer
// collinear layout):
//   (1) area / ~(L/2)^2, (2) volume / ~(L/2), (3) max wire / ~(L/2),
//   (4) max routed wire / ~(L/2).
#include <iostream>

#include "analysis/formulas.hpp"
#include "analysis/routing.hpp"
#include "bench_util.hpp"
#include "core/fold.hpp"
#include "layout/ghc_layout.hpp"

namespace {

using namespace mlvl;

void print_claims() {
  // GHC r=16 has 64 tracks per band — divisible by every t = L/2 below, so
  // the track-level reductions are exact, free of ceil() quantization.
  // Track ("span") columns measure what the paper's leading constants count;
  // gross wire columns include the node boxes, which do not compress.
  std::cout << "\n=== Sec. 1 claims: direct L-layer design (GHC r=16, N=256) "
               "===\n";
  Orthogonal2Layer o = layout::layout_ghc(16, 2);
  const bench::Measured base = bench::measure(o, 2);

  analysis::Table t({"L", "t=L/2", "area_red(meas)", "area_red(paper)",
                     "vol_red(meas)", "vol_red(paper)", "span_red(meas)",
                     "span_red(paper)", "wire_red(gross)", "path_red(gross)"});
  const auto p2 = analysis::max_path_wire(o.graph, base.metrics.edge_length,
                                          /*exact_limit=*/300);
  for (std::uint32_t L : {4u, 8u, 16u, 32u}) {
    const bench::Measured m = bench::measure(o, L);
    const auto pl = analysis::max_path_wire(o.graph, m.metrics.edge_length,
                                            /*exact_limit=*/300);
    t.begin_row()
        .cell(std::uint64_t(L))
        .cell(L / 2.0, 1)
        .cell(double(base.metrics.wiring_area) / m.metrics.wiring_area, 2)
        .cell(formulas::claim_area_factor(L), 2)
        .cell(double(base.metrics.wiring_area) * 2 /
                  (double(m.metrics.wiring_area) * L),
              2)
        .cell(formulas::claim_volume_factor(L), 2)
        .cell(double(base.metrics.wiring_width) / m.metrics.wiring_width, 2)
        .cell(formulas::claim_wire_factor(L), 2)
        .cell(double(base.metrics.max_wire_length) / m.metrics.max_wire_length,
              2)
        .cell(double(p2.max_path_wire) / pl.max_path_wire, 2);
  }
  std::cout << t.str();

  std::cout << "\n=== Baseline comparison at L layers (hypercube N=256): "
               "direct design vs folded Thompson vs multilayer collinear ===\n";
  analysis::Table b({"L", "direct_area", "folded_area", "collinear_area",
                     "direct_vol", "folded_vol", "collinear_vol",
                     "direct_maxwire", "folded_maxwire"});
  CollinearResult col = collinear_hypercube(8);
  for (std::uint32_t L : {2u, 4u, 8u, 16u}) {
    const bench::Measured m = bench::measure(o, L);
    const BaselineMetrics folded = fold_thompson(base.metrics, L);
    const BaselineMetrics coll =
        collinear_multilayer(col.graph, col.layout, L, 1);
    b.begin_row()
        .cell(std::uint64_t(L))
        .cell(m.metrics.area)
        .cell(folded.area)
        .cell(coll.area)
        .cell(m.metrics.volume)
        .cell(folded.volume)
        .cell(coll.volume)
        .cell(std::uint64_t(m.metrics.max_wire_length))
        .cell(std::uint64_t(folded.max_wire_length));
  }
  std::cout << b.str()
            << "\n(The folded baseline keeps volume and wire length; the "
               "collinear baseline keeps volume. Only the direct multilayer "
               "design reduces all three — the paper's motivation.)\n";
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  print_claims();
  return 0;
}
