// Experiment C-perf — the record-level checker: full-pass throughput of the
// serial checker. Each point also lands in the consolidated baseline so
// bench-diff gates the check phase like any other phase.
#include <benchmark/benchmark.h>

#include <chrono>
#include <stdexcept>
#include <vector>

#include "bench_util.hpp"
#include "core/checker.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"

namespace {

using namespace mlvl;

struct CheckFixture {
  Orthogonal2Layer o;
  MultilayerLayout ml;
};

CheckFixture& hypercube_fixture() {
  static CheckFixture f = [] {
    CheckFixture fx{layout::layout_hypercube(8), {}};
    fx.ml = realize(fx.o, {.L = 64});
    return fx;
  }();
  return f;
}

CheckFixture& kary_fixture() {
  static CheckFixture f = [] {
    CheckFixture fx{layout::layout_kary(4, 4), {}};
    fx.ml = realize(fx.o, {.L = 64});
    return fx;
  }();
  return f;
}

CheckFixture& fixture(int id) {
  return id == 0 ? hypercube_fixture() : kary_fixture();
}

/// Full pass; range(0) picks the fixture.
void BM_CheckFull(benchmark::State& state) {
  CheckFixture& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Checker checker(f.o.graph, f.ml.geom, {.via_rule = f.ml.required_rule});
    CheckReport rep = checker.check();
    if (!rep.ok) state.SkipWithError(rep.error.c_str());
    benchmark::DoNotOptimize(rep.points);
  }
  state.SetItemsProcessed(state.iterations() * f.o.graph.num_edges());
}

BENCHMARK(BM_CheckFull)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Baseline row: wall statistics of the full check, per fixture. The cost
/// columns carry the layout's exact dimensions plus the checker's
/// deterministic claim count (as wiring_area), so any change in what the
/// checker examines fails the diff loudly.
void record_baseline_row(const char* family, CheckFixture& f) {
  const bench::BenchConfig& cfg = bench::config();

  bench::BenchRecord full;
  full.family = std::string(family) + "-checkfull";
  full.L = f.ml.geom.num_layers;
  full.nodes = f.o.graph.num_nodes();
  std::uint64_t points = 0;
  {
    std::vector<double> samples;
    for (std::uint32_t i = 0; i < cfg.warmup + cfg.repeats; ++i) {
      Checker checker(f.o.graph, f.ml.geom,
                      {.via_rule = f.ml.required_rule});
      const auto t0 = std::chrono::steady_clock::now();
      CheckReport rep = checker.check();
      const auto t1 = std::chrono::steady_clock::now();
      if (!rep.ok)
        throw std::runtime_error("bench_check: invalid layout: " + rep.error);
      points = rep.points;
      if (i >= cfg.warmup)
        samples.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    bench::apply_wall_stats(full, std::move(samples));
  }
  full.area = f.ml.geom.area();
  full.volume = f.ml.geom.volume();
  full.vias = f.ml.geom.vias.size();
  full.wiring_area = points;
  bench::BenchRecorder::instance().add(full);

}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_bench_flags(argc, argv);
  record_baseline_row("hypercube", hypercube_fixture());
  record_baseline_row("kary", kary_fixture());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
