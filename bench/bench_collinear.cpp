// Experiment F2/F3/F4 — the collinear building blocks of Figs. 2-4 and their
// track-count closed forms.
#include <iostream>

#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "core/collinear.hpp"

namespace {

using namespace mlvl;

void print_figure_table() {
  analysis::Table t({"figure", "construction", "nodes", "tracks(paper)",
                     "tracks(measured)", "valid"});
  {
    CollinearResult r = collinear_kary(3, 2);
    t.begin_row().cell("Fig.2").cell("3-ary 2-cube").cell(r.graph.num_nodes())
        .cell(kary_track_formula(3, 2)).cell(std::uint64_t(r.layout.num_tracks))
        .cell(r.layout.is_valid(r.graph) ? "yes" : "NO");
  }
  {
    CollinearResult r = collinear_complete(9);
    t.begin_row().cell("Fig.3").cell("K9 complete").cell(r.graph.num_nodes())
        .cell(complete_track_formula(9)).cell(std::uint64_t(r.layout.num_tracks))
        .cell(r.layout.is_valid(r.graph) ? "yes" : "NO");
  }
  {
    CollinearResult r = collinear_hypercube(4);
    t.begin_row().cell("Fig.4").cell("4-cube").cell(r.graph.num_nodes())
        .cell(hypercube_track_formula(4)).cell(std::uint64_t(r.layout.num_tracks))
        .cell(r.layout.is_valid(r.graph) ? "yes" : "NO");
  }
  std::cout << "\n=== Collinear building blocks (paper Figs. 2-4) ===\n"
            << t.str();

  analysis::Table s({"family", "param", "N", "f(paper)", "f(measured)",
                     "max-span(nat)", "max-span(folded)"});
  for (std::uint32_t k : {3u, 4u, 8u}) {
    CollinearResult nat = collinear_kary(k, 3);
    CollinearResult fld = collinear_kary(k, 3, Ordering::kFolded);
    s.begin_row().cell("k-ary 3-cube").cell(std::uint64_t(k))
        .cell(nat.graph.num_nodes()).cell(kary_track_formula(k, 3))
        .cell(std::uint64_t(nat.layout.num_tracks))
        .cell(std::uint64_t(nat.layout.max_span(nat.graph)))
        .cell(std::uint64_t(fld.layout.max_span(fld.graph)));
  }
  for (std::uint32_t n : {6u, 8u, 10u}) {
    CollinearResult r = collinear_hypercube(n);
    s.begin_row().cell("hypercube").cell(std::uint64_t(n))
        .cell(r.graph.num_nodes()).cell(hypercube_track_formula(n))
        .cell(std::uint64_t(r.layout.num_tracks))
        .cell(std::uint64_t(r.layout.max_span(r.graph))).cell("-");
  }
  for (std::uint32_t r0 : {4u, 8u, 16u}) {
    CollinearResult r = collinear_ghc({r0, r0});
    s.begin_row().cell("GHC 2-dim").cell(std::uint64_t(r0))
        .cell(r.graph.num_nodes()).cell(ghc_track_formula({r0, r0}))
        .cell(std::uint64_t(r.layout.num_tracks))
        .cell(std::uint64_t(r.layout.max_span(r.graph))).cell("-");
  }
  std::cout << "\n=== Collinear track-count closed forms ===\n" << s.str();
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  print_figure_table();
  return 0;
}
