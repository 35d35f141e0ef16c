// Experiment T-perf — engineering throughput of the layout engine itself:
// topology generation, track assignment, geometry realization and full
// geometric verification at scale.
#include <benchmark/benchmark.h>

#include "analysis/lint.hpp"
#include "bench_util.hpp"
#include "core/collinear.hpp"
#include "layout/ccc_layout.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"
#include "topology/hypercube.hpp"

namespace {

using namespace mlvl;

void BM_TopologyHypercube(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Graph g = topo::make_hypercube(n);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * (std::int64_t(n) << (n - 1)));
}

void BM_TrackAssignment(benchmark::State& state) {
  CollinearResult hc =
      collinear_hypercube(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    CollinearLayout lay = collinear_greedy(hc.graph, hc.layout.order);
    benchmark::DoNotOptimize(lay.num_tracks);
  }
  state.SetItemsProcessed(state.iterations() * hc.graph.num_edges());
}

void BM_RealizeGeometry(benchmark::State& state) {
  Orthogonal2Layer o =
      layout::layout_hypercube(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    MultilayerLayout ml = realize(o, {.L = 8});
    benchmark::DoNotOptimize(ml.geom.segs.size());
  }
  state.SetItemsProcessed(state.iterations() * o.graph.num_edges());
}

void BM_CheckGeometry(benchmark::State& state) {
  Orthogonal2Layer o =
      layout::layout_hypercube(static_cast<std::uint32_t>(state.range(0)));
  MultilayerLayout ml = realize(o, {.L = 8});
  for (auto _ : state) {
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    if (!res.ok) state.SkipWithError(res.error.c_str());
    benchmark::DoNotOptimize(res.points);
  }
  state.SetItemsProcessed(state.iterations() * o.graph.num_edges());
}

void BM_LintGeometry(benchmark::State& state) {
  Orthogonal2Layer o =
      layout::layout_hypercube(static_cast<std::uint32_t>(state.range(0)));
  MultilayerLayout ml = realize(o, {.L = 8});
  analysis::LintConfig cfg;
  cfg.via_rule = ml.required_rule;
  for (auto _ : state) {
    DiagnosticSink sink(256);
    analysis::LintStats stats = analysis::lint_layout(o.graph, ml.geom, cfg, sink);
    if (!stats.clean()) state.SkipWithError(sink.summary().c_str());
    benchmark::DoNotOptimize(stats.reported);
  }
  state.SetItemsProcessed(state.iterations() * o.graph.num_edges());
}

void BM_EndToEndCcc(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Orthogonal2Layer o = layout::layout_ccc(n);
    MultilayerLayout ml = realize(o, {.L = 4});
    benchmark::DoNotOptimize(ml.geom.area());
  }
}

BENCHMARK(BM_TopologyHypercube)->Arg(10)->Arg(14)->Arg(16);
BENCHMARK(BM_TrackAssignment)->Arg(8)->Arg(10)->Arg(12);
BENCHMARK(BM_RealizeGeometry)->Arg(6)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CheckGeometry)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LintGeometry)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEndCcc)->Arg(4)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_bench_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
