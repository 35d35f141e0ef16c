// Experiment T4.2 — Sec. 4.2 butterfly networks: area 4N^2/(L^2 log2^2 N),
// volume 4N^2/(L log^2 N), max wire 2N/(L log N).
//
// Our decomposition uses the hypercube quotient with row-group multiplicity
// (see DESIGN.md §4), whose measured constant lands below the paper's GHC
// bound — consistent with the paper's "optimal within a small constant".
#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_util.hpp"
#include "layout/butterfly_layout.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T4.2: wrapped butterfly vs paper formula ===\n";
  analysis::Table t({"k(levels)", "N", "L", "area(paper)", "area(meas)",
                     "ratio", "maxwire(paper)", "maxwire(meas)", "ratio_w"});
  for (std::uint32_t k : {4u, 5u, 6u}) {
    Orthogonal2Layer o = layout::layout_butterfly(k);
    const std::uint64_t N = o.graph.num_nodes();
    for (std::uint32_t L : {2u, 4u, 8u}) {
      const bench::Measured m = bench::measure(
          o, L, /*pack_extras=*/true, "butterfly");
      const double pa = formulas::butterfly_area(N, L);
      const double pw = formulas::butterfly_max_wire(N, L);
      t.begin_row().cell(std::uint64_t(k)).cell(N).cell(std::uint64_t(L))
          .cell(pa, 0).cell(std::uint64_t(m.metrics.wiring_area))
          .cell(bench::ratio(double(m.metrics.wiring_area), pa), 3)
          .cell(pw, 0).cell(std::uint64_t(m.metrics.max_wire_length))
          .cell(bench::ratio(m.metrics.max_wire_length, pw), 3);
    }
  }
  std::cout << t.str();

  std::cout << "\n=== T4.2b: cluster row-group size sweep (2^b rows per "
               "cluster) ===\n";
  analysis::Table s({"k", "b", "extras", "area(meas,L=4)"});
  for (std::uint32_t b : {1u, 2u, 3u}) {
    Orthogonal2Layer o = layout::layout_butterfly(5, b);
    const bench::Measured m = bench::measure(o, 4);
    s.begin_row().cell(std::uint64_t(5)).cell(std::uint64_t(b))
        .cell(std::uint64_t(o.extras.size()))
        .cell(std::uint64_t(m.metrics.wiring_area));
  }
  std::cout << s.str();
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  print_tables();
  return 0;
}
