// Experiment T3.1 — Sec. 3.1 k-ary n-cube results: track formula
// f_k(n) = 2(k^n-1)/(k-1), area 16N^2/(L^2 k^2) (even L) and
// 16N^2/((L^2-1)k^2) (odd L), volume 16N^2/(L k^2), and the folded-ordering
// max-wire reduction O(N/(L k^2)).
#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_util.hpp"
#include "layout/kary_layout.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T3.1a: k-ary n-cube wiring area vs paper formula ===\n";
  analysis::Table t({"k", "n", "N", "L", "area(paper)", "area(meas)",
                     "ratio", "vol(paper)", "vol(meas)", "ratio_v"});
  struct Cfg {
    std::uint32_t k, n;
  };
  for (const Cfg c : {Cfg{3, 4}, Cfg{4, 4}, Cfg{5, 3}, Cfg{6, 3}, Cfg{8, 2}}) {
    Orthogonal2Layer o = layout::layout_kary(c.k, c.n);
    const std::uint64_t N = o.graph.num_nodes();
    for (std::uint32_t L : {2u, 4u, 8u}) {
      const bench::Measured m =
          bench::measure(o, L, /*pack_extras=*/true, "kary");
      const double pa = formulas::kary_area(N, c.k, L);
      const double pv = formulas::kary_volume(N, c.k, L);
      t.begin_row().cell(std::uint64_t(c.k)).cell(std::uint64_t(c.n)).cell(N)
          .cell(std::uint64_t(L)).cell(pa, 0)
          .cell(std::uint64_t(m.metrics.wiring_area))
          .cell(bench::ratio(double(m.metrics.wiring_area), pa), 3)
          .cell(pv, 0).cell(m.metrics.wiring_area * L)
          .cell(bench::ratio(double(m.metrics.wiring_area) * L, pv), 3);
    }
  }
  std::cout << t.str();

  std::cout << "\n=== T3.1b: odd L uses the (L^2-1) divisor ===\n";
  analysis::Table odd({"k", "n", "L", "area(paper,odd)", "area(meas)", "ratio"});
  for (std::uint32_t L : {3u, 5u, 7u, 9u}) {
    Orthogonal2Layer o = layout::layout_kary(4, 4);
    const bench::Measured m = bench::measure(o, L);
    const double pa = formulas::kary_area(256, 4, L);
    odd.begin_row().cell(std::uint64_t(4)).cell(std::uint64_t(4))
        .cell(std::uint64_t(L)).cell(pa, 0)
        .cell(std::uint64_t(m.metrics.wiring_area))
        .cell(bench::ratio(double(m.metrics.wiring_area), pa), 3);
  }
  std::cout << odd.str();

  std::cout << "\n=== T3.1c: folding rows/columns shortens the max wire ===\n";
  analysis::Table fold({"k", "n", "L", "maxwire(natural)", "maxwire(folded)",
                        "reduction"});
  struct Cfg2 {
    std::uint32_t k, n;
  };
  for (const Cfg2 c : {Cfg2{4, 4}, Cfg2{6, 3}, Cfg2{8, 2}}) {
    Orthogonal2Layer nat = layout::layout_kary(c.k, c.n);
    Orthogonal2Layer fld = layout::layout_kary(c.k, c.n, Ordering::kFolded);
    for (std::uint32_t L : {2u, 4u}) {
      const bench::Measured mn = bench::measure(nat, L);
      const bench::Measured mf = bench::measure(fld, L);
      fold.begin_row().cell(std::uint64_t(c.k)).cell(std::uint64_t(c.n))
          .cell(std::uint64_t(L))
          .cell(std::uint64_t(mn.metrics.max_wire_length))
          .cell(std::uint64_t(mf.metrics.max_wire_length))
          .cell(double(mn.metrics.max_wire_length) /
                    mf.metrics.max_wire_length, 2);
    }
  }
  std::cout << fold.str()
            << "(paper: folding brings max wire to O(N/(L k^2)), a ~k/2 "
               "factor over the natural ordering)\n";

  std::cout << "\n=== T3.1d: mesh vs torus (the Sec. 3.2 'general meshes and "
               "tori' extension) ===\n";
  analysis::Table mesh({"k", "n", "L", "area(torus)", "area(mesh)",
                        "torus/mesh"});
  for (const Cfg c : {Cfg{4, 4}, Cfg{8, 2}}) {
    Orthogonal2Layer torus = layout::layout_kary(c.k, c.n);
    Orthogonal2Layer m = layout::layout_kary_mesh(c.k, c.n);
    for (std::uint32_t L : {2u, 4u}) {
      const bench::Measured mt = bench::measure(torus, L);
      const bench::Measured mm = bench::measure(m, L);
      mesh.begin_row().cell(std::uint64_t(c.k)).cell(std::uint64_t(c.n))
          .cell(std::uint64_t(L)).cell(std::uint64_t(mt.metrics.wiring_area))
          .cell(std::uint64_t(mm.metrics.wiring_area))
          .cell(double(mt.metrics.wiring_area) / mm.metrics.wiring_area, 2);
    }
  }
  std::cout << mesh.str()
            << "(dropping the wraparound halves each collinear factor: "
               "~4x area)\n";
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  print_tables();
  return 0;
}
