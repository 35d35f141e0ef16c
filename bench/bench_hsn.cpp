// Experiment T4.3a — Sec. 4.3 hierarchical swap networks and HHNs:
// area N^2/(4L^2), volume N^2/(4L), max wire N/(2L), routed wire N/L.
#include <iostream>

#include "analysis/formulas.hpp"
#include "analysis/routing.hpp"
#include "bench_util.hpp"
#include "layout/hsn_layout.hpp"
#include "topology/complete.hpp"
#include "topology/ring.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T4.3a: HSN / HHN vs paper formula ===\n";
  analysis::Table t({"network", "N", "L", "area(paper)", "area(meas)", "ratio",
                     "maxwire(paper)", "maxwire(meas)", "ratio_w"});
  struct Cfg {
    const char* name;
    Orthogonal2Layer o;
  };
  std::vector<Cfg> cfgs;
  cfgs.push_back({"HSN(3,ring4)", layout::layout_hsn(3, topo::make_ring(4))});
  cfgs.push_back({"HSN(2,ring8)", layout::layout_hsn(2, topo::make_ring(8))});
  cfgs.push_back({"HSN(2,K6)", layout::layout_hsn(2, topo::make_complete(6))});
  cfgs.push_back({"HHN(2,m=3)", layout::layout_hhn(2, 3)});
  for (const Cfg& c : cfgs) {
    const std::uint64_t N = c.o.graph.num_nodes();
    for (std::uint32_t L : {2u, 4u, 8u}) {
      const bench::Measured m = bench::measure(c.o, L);
      const double pa = formulas::hsn_area(N, L);
      const double pw = formulas::hsn_max_wire(N, L);
      t.begin_row().cell(c.name).cell(N).cell(std::uint64_t(L)).cell(pa, 0)
          .cell(std::uint64_t(m.metrics.wiring_area))
          .cell(bench::ratio(double(m.metrics.wiring_area), pa), 3)
          .cell(pw, 0).cell(std::uint64_t(m.metrics.max_wire_length))
          .cell(bench::ratio(m.metrics.max_wire_length, pw), 3);
    }
  }
  std::cout << t.str();

  std::cout << "\n=== T4.3a': HSN max routed wire (paper N/L) ===\n";
  analysis::Table p({"network", "N", "L", "path(paper)", "path(meas)", "ratio"});
  Orthogonal2Layer o = layout::layout_hsn(2, topo::make_ring(8));
  for (std::uint32_t L : {2u, 4u, 8u}) {
    const bench::Measured m = bench::measure(o, L);
    const auto st = analysis::max_path_wire(o.graph, m.metrics.edge_length);
    const double pp = formulas::hsn_path_wire(o.graph.num_nodes(), L);
    p.begin_row().cell("HSN(2,ring8)").cell(std::uint64_t(o.graph.num_nodes()))
        .cell(std::uint64_t(L)).cell(pp, 0).cell(st.max_path_wire)
        .cell(bench::ratio(double(st.max_path_wire), pp), 3);
  }
  std::cout << p.str();
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  print_tables();
  return 0;
}
