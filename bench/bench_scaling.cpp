// Experiment T-scal — "optimally scalable" node sizes: growing every node box
// up to o(Area/N) must not change the leading constant of area, volume, or
// max wire length (Sec. 3.2). We sweep the node box side and report the
// wiring extents (unchanged) and the gross area (grows only by the node
// term).
#include <iostream>

#include "bench_util.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T-scal: node-size sweep (hypercube n=8, L=4) ===\n";
  analysis::Table t({"node_side", "width", "height", "gross_area",
                     "wiring_area", "maxwire", "area_vs_min"});
  Orthogonal2Layer o = layout::layout_hypercube(8);
  std::uint64_t base_area = 0;
  for (std::uint32_t s : {0u, 16u, 32u, 64u}) {
    MultilayerLayout ml =
        realize(o, RealizeOptions{.L = 4, .node_size = s});
    LayoutMetrics m = compute_metrics(ml, o.graph);
    if (base_area == 0) base_area = m.area;
    t.begin_row().cell(std::uint64_t(s ? s : 12)).cell(std::uint64_t(m.width))
        .cell(std::uint64_t(m.height)).cell(m.area).cell(m.wiring_area)
        .cell(std::uint64_t(m.max_wire_length))
        .cell(double(m.area) / base_area, 3);
  }
  std::cout << t.str()
            << "(wiring_area is invariant; gross area grows only by the node "
               "term — the layouts are optimally scalable in node size)\n";

  std::cout << "\n=== T-scal b: same sweep on a k-ary 2-cube (k=8, L=4) ===\n";
  analysis::Table t2({"node_side", "gross_area", "wiring_area", "maxwire"});
  Orthogonal2Layer o2 = layout::layout_kary(8, 2);
  for (std::uint32_t s : {0u, 8u, 24u, 48u}) {
    MultilayerLayout ml = realize(o2, RealizeOptions{.L = 4, .node_size = s});
    LayoutMetrics m = compute_metrics(ml, o2.graph);
    t2.begin_row().cell(std::uint64_t(s ? s : 6)).cell(m.area)
        .cell(m.wiring_area).cell(std::uint64_t(m.max_wire_length));
  }
  std::cout << t2.str();
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  print_tables();
  return 0;
}
