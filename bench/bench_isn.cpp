// Experiment T4.3b — Sec. 4.3 ISN vs butterfly: with half the inter-cluster
// multiplicity (2 links vs 4 per quotient pair), the ISN's area and volume
// should be ~4x smaller and its wire lengths ~2x shorter than a similar-size
// butterfly.
#include <iostream>

#include "bench_util.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/isn_layout.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T4.3b: ISN (2 links/pair) vs butterfly-equivalent "
               "control (4 links/pair), same quotient & clusters ===\n";
  // Sec. 4.3 derives the ISN's advantage purely from halving the
  // inter-cluster multiplicity; holding everything else fixed isolates that:
  // the paper predicts ~4x area and ~2x max-wire.
  analysis::Table m({"l", "r", "N", "L", "area_isn", "area_ctl",
                     "ctl/isn(area)", "maxw_isn", "maxw_ctl", "ctl/isn(wire)"});
  struct C2 {
    std::uint32_t l, r;
  };
  for (const C2 c : {C2{3, 4}, C2{3, 6}, C2{4, 3}}) {
    Orthogonal2Layer isn = layout::layout_isn(c.l, c.r, 2);
    Orthogonal2Layer ctl = layout::layout_isn(c.l, c.r, 4);
    for (std::uint32_t L : {2u, 4u}) {
      const bench::Measured mi = bench::measure(isn, L);
      const bench::Measured mc = bench::measure(ctl, L);
      m.begin_row().cell(std::uint64_t(c.l)).cell(std::uint64_t(c.r))
          .cell(std::uint64_t(isn.graph.num_nodes())).cell(std::uint64_t(L))
          .cell(std::uint64_t(mi.metrics.wiring_area))
          .cell(std::uint64_t(mc.metrics.wiring_area))
          .cell(double(mc.metrics.wiring_area) / mi.metrics.wiring_area, 2)
          .cell(std::uint64_t(mi.metrics.max_wire_length))
          .cell(std::uint64_t(mc.metrics.max_wire_length))
          .cell(double(mc.metrics.max_wire_length) /
                    mi.metrics.max_wire_length, 2);
    }
  }
  std::cout << m.str();

  std::cout << "\n=== T4.3b': ISN vs an actual wrapped butterfly ===\n";
  analysis::Table t({"pair", "N_isn", "N_bf", "L", "area_isn", "area_bf",
                     "bf/isn(area)", "maxw_isn", "maxw_bf", "bf/isn(wire)"});
  struct Pair {
    std::uint32_t isn_levels, isn_r, bf_k;
  };
  // Sizes chosen so N is comparable: ISN(3, r) has r^2 * 2r nodes vs
  // butterfly k 2^k.
  for (const Pair pr : {Pair{3, 4, 7}, Pair{3, 5, 8}}) {
    Orthogonal2Layer isn = layout::layout_isn(pr.isn_levels, pr.isn_r);
    Orthogonal2Layer bf = layout::layout_butterfly(pr.bf_k);
    for (std::uint32_t L : {2u, 4u}) {
      const bench::Measured mi = bench::measure(isn, L);
      const bench::Measured mb = bench::measure(bf, L);
      t.begin_row()
          .cell("ISN(" + std::to_string(pr.isn_levels) + "," +
                std::to_string(pr.isn_r) + ") vs BF(" +
                std::to_string(pr.bf_k) + ")")
          .cell(std::uint64_t(isn.graph.num_nodes()))
          .cell(std::uint64_t(bf.graph.num_nodes()))
          .cell(std::uint64_t(L))
          .cell(std::uint64_t(mi.metrics.wiring_area))
          .cell(std::uint64_t(mb.metrics.wiring_area))
          .cell(double(mb.metrics.wiring_area) / mi.metrics.wiring_area, 2)
          .cell(std::uint64_t(mi.metrics.max_wire_length))
          .cell(std::uint64_t(mb.metrics.max_wire_length))
          .cell(double(mb.metrics.max_wire_length) /
                    mi.metrics.max_wire_length, 2);
    }
  }
  std::cout << t.str()
            << "(paper predicts ~4x area and ~2x wire advantages for ISN, "
               "normalized per node; raw sizes differ slightly)\n";
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  print_tables();
  return 0;
}
