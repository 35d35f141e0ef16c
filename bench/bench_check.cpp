// Experiment C-perf — the record-level checker: full-pass wall time of the
// serial checker on hypercube(8) at L=64. The row lands in the consolidated
// baseline so bench-diff gates the check phase like any other phase.
#include <stdexcept>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "core/checker.hpp"
#include "layout/hypercube_layout.hpp"

int main(int argc, char** argv) {
  using namespace mlvl;
  bench::parse_args(argc, argv);
  const Orthogonal2Layer o = layout::layout_hypercube(8);
  const MultilayerLayout ml = realize(o, {.L = 64});
  Checker checker(o.graph, ml.geom, {.via_rule = ml.required_rule});

  // The cost columns carry the layout's exact dimensions plus the checker's
  // deterministic point count (as wiring_area), so any change in what the
  // checker examines fails the diff loudly.
  bench::BenchRecord rec;
  rec.family = "hypercube-checkfull";
  rec.L = ml.geom.num_layers;
  rec.nodes = o.graph.num_nodes();
  bench::record_wall(rec, [&] {
    const CheckReport rep = checker.check();
    if (!rep.ok)
      throw std::runtime_error("bench_check: invalid layout: " + rep.error);
    rec.wiring_area = rep.points;
  });
  rec.area = ml.geom.area();
  rec.volume = ml.geom.volume();
  rec.vias = ml.geom.vias.size();
  bench::BenchRecorder::instance().add(std::move(rec));
  return 0;
}
