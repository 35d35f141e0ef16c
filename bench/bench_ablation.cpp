// Ablations of the design choices DESIGN.md calls out:
//   A1  constructive (paper recursion) vs greedy (left-edge) track assignment
//   A2  natural vs folded node orderings (max wire length)
//   A3  packed vs reserved extra-link accounting
//   A4  extra-link hub count
//   A5  structured (HSN-style) vs generic placement for star graphs
#include <iostream>

#include "bench_util.hpp"
#include "core/collinear.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/cayley_layout.hpp"
#include "layout/folded_hc_layout.hpp"
#include "layout/generic_layout.hpp"
#include "layout/kary_layout.hpp"
#include "topology/cayley.hpp"

namespace {

using namespace mlvl;

void ablation_tracks() {
  std::cout << "\n=== A1: constructive vs greedy track assignment (k-ary "
               "n-cube) ===\n";
  analysis::Table t({"k", "n", "max_band(constructive)", "max_band(greedy)",
                     "area(constructive)", "area(greedy)"});
  struct Cfg {
    std::uint32_t k, n;
  };
  for (const Cfg c : {Cfg{3, 4}, Cfg{4, 4}, Cfg{6, 3}}) {
    Orthogonal2Layer cons = layout::layout_kary(c.k, c.n);
    // Same graph and placement, tracks re-assigned greedily per band.
    Orthogonal2Layer greedy = orthogonal_greedy(cons.graph, cons.place);
    const bench::Measured mc = bench::measure(cons, 4);
    const bench::Measured mg = bench::measure(greedy, 4);
    t.begin_row().cell(std::uint64_t(c.k)).cell(std::uint64_t(c.n))
        .cell(std::uint64_t(std::max(cons.max_row_tracks(), cons.max_col_tracks())))
        .cell(std::uint64_t(std::max(greedy.max_row_tracks(), greedy.max_col_tracks())))
        .cell(std::uint64_t(mc.metrics.wiring_area))
        .cell(std::uint64_t(mg.metrics.wiring_area));
  }
  std::cout << t.str()
            << "(greedy = per-band optimum for the ordering; the paper's "
               "constructive recursion matches it — evidence the recursion "
               "is tight)\n";
}

void ablation_ordering() {
  std::cout << "\n=== A2: natural vs folded ordering ===\n";
  analysis::Table t({"k", "n", "maxwire(nat)", "maxwire(folded)",
                     "area(nat)", "area(folded)"});
  struct Cfg {
    std::uint32_t k, n;
  };
  for (const Cfg c : {Cfg{6, 3}, Cfg{8, 2}, Cfg{5, 3}}) {
    const bench::Measured nat =
        bench::measure(layout::layout_kary(c.k, c.n), 4);
    const bench::Measured fld = bench::measure(
        layout::layout_kary(c.k, c.n, Ordering::kFolded), 4);
    t.begin_row().cell(std::uint64_t(c.k)).cell(std::uint64_t(c.n))
        .cell(std::uint64_t(nat.metrics.max_wire_length))
        .cell(std::uint64_t(fld.metrics.max_wire_length))
        .cell(std::uint64_t(nat.metrics.wiring_area))
        .cell(std::uint64_t(fld.metrics.wiring_area));
  }
  std::cout << t.str()
            << "(folding buys ~k/2 in wire length for a few extra tracks)\n";
}

void ablation_extras() {
  std::cout << "\n=== A3: packed vs reserved extras (folded hypercube n=7, "
               "L=4) ===\n";
  Orthogonal2Layer o = layout::layout_folded_hypercube(7);
  const bench::Measured packed = bench::measure(o, 4);
  const bench::Measured reserved = bench::measure(o, 4, false);
  std::cout << "packed area " << packed.metrics.wiring_area
            << " vs reserved " << reserved.metrics.wiring_area << " (gain "
            << double(reserved.metrics.wiring_area) /
                   packed.metrics.wiring_area
            << "x)\n";

  std::cout << "\n=== A4: extra-link hub count (butterfly k=6) ===\n";
  analysis::Table t({"L", "hubs", "wiring_area", "max_wire"});
  Orthogonal2Layer bf = layout::layout_butterfly(6);
  for (std::uint32_t L : {2u, 4u, 8u}) {
    for (std::uint32_t hubs : {0u, 1u, 4u, 16u, 64u}) {
      MultilayerLayout ml = realize(
          bf, RealizeOptions{.L = L, .node_size = 0, .pack_extras = true,
                             .extra_hubs = hubs});
      LayoutMetrics m = compute_metrics(ml, bf.graph);
      t.begin_row().cell(std::uint64_t(L))
          .cell(hubs ? std::to_string(hubs) : std::string("auto"))
          .cell(m.wiring_area).cell(std::uint64_t(m.max_wire_length));
    }
  }
  std::cout << t.str()
            << "(fewer hubs pack the vertical runs; more hubs shorten "
               "wires — 'auto' is E/(4 floor(L/2)))\n";
}

void ablation_star() {
  std::cout << "\n=== A5: structured vs generic star-graph layout ===\n";
  analysis::Table t({"n", "N", "L", "area(structured)", "area(generic)",
                     "maxw(structured)", "maxw(generic)"});
  for (std::uint32_t n : {4u, 5u}) {
    Orthogonal2Layer st = layout::layout_star_structured(n);
    Orthogonal2Layer gen = layout::layout_generic(topo::make_star_graph(n));
    for (std::uint32_t L : {2u, 4u, 8u}) {
      const bench::Measured ms = bench::measure(st, L);
      const bench::Measured mg = bench::measure(gen, L);
      t.begin_row().cell(std::uint64_t(n))
          .cell(std::uint64_t(st.graph.num_nodes())).cell(std::uint64_t(L))
          .cell(std::uint64_t(ms.metrics.wiring_area))
          .cell(std::uint64_t(mg.metrics.wiring_area))
          .cell(std::uint64_t(ms.metrics.max_wire_length))
          .cell(std::uint64_t(mg.metrics.max_wire_length));
    }
  }
  std::cout << t.str();
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  ablation_tracks();
  ablation_ordering();
  ablation_extras();
  ablation_star();
  return 0;
}
