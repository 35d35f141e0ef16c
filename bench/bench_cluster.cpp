// Experiment T3.2 — Sec. 3.2 k-ary n-cube cluster-c: the cluster area is
// negligible while c stays small (c = o(k^{n/2-1}) for hypercube clusters,
// o(k^{n/4-1}) for complete clusters), so the PN-cluster layout matches the
// quotient layout within 1 + o(1).
#include <iostream>

#include "analysis/formulas.hpp"
#include "bench_util.hpp"
#include "layout/cluster_layout.hpp"
#include "layout/kary_layout.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T3.2: k-ary n-cube cluster-c vs bare quotient ===\n";
  analysis::Table t({"kind", "k", "n", "c", "N", "L", "quotient_area",
                     "cluster_area", "overhead"});
  struct Cfg {
    topo::ClusterKind kind;
    const char* name;
    std::uint32_t c;
  };
  // n = 4 keeps the configurations on both sides of the Sec. 3.2 threshold
  // c = o(k^{n/2-1}) = o(k): small c rides along nearly free, large c starts
  // to dominate — the regime boundary the paper derives.
  for (std::uint32_t k : {3u, 4u}) {
    const std::uint32_t n = 4;
    Orthogonal2Layer q = layout::layout_kary(k, n);
    for (const Cfg cfg : {Cfg{topo::ClusterKind::kHypercube, "hcube", 2},
                          Cfg{topo::ClusterKind::kHypercube, "hcube", 4},
                          Cfg{topo::ClusterKind::kHypercube, "hcube", 8},
                          Cfg{topo::ClusterKind::kComplete, "complete", 4},
                          Cfg{topo::ClusterKind::kComplete, "complete", 8}}) {
      Orthogonal2Layer o = layout::layout_kary_cluster(k, n, cfg.c, cfg.kind);
      for (std::uint32_t L : {2u, 4u}) {
        const bench::Measured mq = bench::measure(q, L);
        const bench::Measured mc = bench::measure(o, L);
        t.begin_row().cell(cfg.name).cell(std::uint64_t(k)).cell(std::uint64_t(n))
            .cell(std::uint64_t(cfg.c)).cell(std::uint64_t(o.graph.num_nodes()))
            .cell(std::uint64_t(L)).cell(std::uint64_t(mq.metrics.wiring_area))
            .cell(std::uint64_t(mc.metrics.wiring_area))
            .cell(double(mc.metrics.wiring_area) / mq.metrics.wiring_area, 2);
      }
    }
  }
  std::cout << t.str()
            << "(overhead -> 1 while c stays below the paper's thresholds; "
               "complete clusters grow faster, matching the o(k^{n/4-1}) "
               "bound)\n";
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  print_tables();
  return 0;
}
