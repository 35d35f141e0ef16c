// Experiment T5.2 — Sec. 5.2 cube-connected cycles and reduced hypercubes:
// area 16N^2/(9 L^2 log2^2 N); the flattened hypercube-cluster layout has no
// extra links, so its cost is dominated by the cube links exactly as the
// paper argues.
#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_util.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/hypercube_layout.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T5.2: CCC and RH vs paper formula ===\n";
  analysis::Table t({"network", "n", "N", "L", "area(paper)", "area(meas)",
                     "ratio"});
  for (std::uint32_t n : {4u, 5u, 6u}) {
    Orthogonal2Layer o = layout::layout_ccc(n);
    const std::uint64_t N = o.graph.num_nodes();
    for (std::uint32_t L : {2u, 4u, 8u}) {
      const bench::Measured m = bench::measure(o, L,
                                               /*pack_extras=*/true, "ccc");
      const double pa = formulas::ccc_area(N, L);
      t.begin_row().cell("CCC").cell(std::uint64_t(n)).cell(N)
          .cell(std::uint64_t(L)).cell(pa, 0)
          .cell(std::uint64_t(m.metrics.wiring_area))
          .cell(bench::ratio(double(m.metrics.wiring_area), pa), 3);
    }
  }
  for (std::uint32_t n : {4u, 8u}) {
    Orthogonal2Layer o = layout::layout_reduced_hypercube(n);
    const std::uint64_t N = o.graph.num_nodes();
    for (std::uint32_t L : {2u, 4u}) {
      const bench::Measured m = bench::measure(o, L,
                                               /*pack_extras=*/true, "rh");
      const double pa = formulas::ccc_area(N, L);
      t.begin_row().cell("RH").cell(std::uint64_t(n)).cell(N)
          .cell(std::uint64_t(L)).cell(pa, 0)
          .cell(std::uint64_t(m.metrics.wiring_area))
          .cell(bench::ratio(double(m.metrics.wiring_area), pa), 3);
    }
  }
  std::cout << t.str();

  std::cout << "\n=== T5.2b: CCC vs same-cube-size hypercube — the 1/log^2 "
               "factor ===\n";
  analysis::Table c({"n", "N_ccc", "ccc_area", "N_hc", "hc_area",
                     "hc/ccc(per-node^2)"});
  for (std::uint32_t n : {4u, 5u, 6u}) {
    Orthogonal2Layer ccc = layout::layout_ccc(n);
    Orthogonal2Layer hc = layout::layout_hypercube(n);
    const bench::Measured mc = bench::measure(ccc, 4);
    const bench::Measured mh = bench::measure(hc, 4);
    const double nc = ccc.graph.num_nodes(), nh = hc.graph.num_nodes();
    const double per_node_ratio = (double(mh.metrics.wiring_area) / (nh * nh)) /
                                  (double(mc.metrics.wiring_area) / (nc * nc));
    c.begin_row().cell(std::uint64_t(n))
        .cell(std::uint64_t(ccc.graph.num_nodes()))
        .cell(std::uint64_t(mc.metrics.wiring_area))
        .cell(std::uint64_t(hc.graph.num_nodes()))
        .cell(std::uint64_t(mh.metrics.wiring_area)).cell(per_node_ratio, 2);
  }
  std::cout << c.str()
            << "(per-node^2 normalized: CCC's area constant is ~log^2 N "
               "smaller, the paper's Sec. 5.2 point; [8] Chen-Lau is the "
               "prior 2-layer result this construction beats)\n";
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  print_tables();
  return 0;
}
