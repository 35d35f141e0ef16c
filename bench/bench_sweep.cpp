// Experiment T-sweep — serial vs parallel wall time of the batch layout
// engine on the acceptance grid: hypercube n=6..10 x L=2..8 (35 jobs, 5
// unique topologies). The geometric checker is off, and the engine builds
// each topology once per batch, so the measured work is 5 orthogonal builds
// plus 35 realize+metrics passes.
//
// Two rows land in BENCH_mlvl.json: family "sweep-serial" and
// "sweep-parallel" (nodes = job count, wall_ms = median batch time over the
// iterations google-benchmark ran), so CI can track the parallel speedup
// across revisions.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "engine/sweep.hpp"

namespace {

using namespace mlvl;

std::vector<engine::SweepJob> acceptance_grid() {
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<engine::SweepJob> jobs;
  for (std::uint32_t n = 6; n <= 10; ++n) {
    std::optional<api::FamilySpec> spec =
        reg.parse("hypercube(n=" + std::to_string(n) + ")");
    for (std::uint32_t L = 2; L <= 8; ++L)
      jobs.push_back({*spec, {.L = L}});
  }
  return jobs;
}

/// Run one batch per iteration on a fresh engine (the 5 builds are part of
/// what the sweep amortizes) and record the repeat
/// statistics of the batch wall time under `family`. Every iteration is one
/// sample; google-benchmark decides the iteration count, so the recorded
/// spread reflects however many batches actually ran.
void sweep_batch(benchmark::State& state, const char* family,
                 unsigned threads) {
  const std::vector<engine::SweepJob> jobs = acceptance_grid();
  std::vector<double> samples;
  for (auto _ : state) {
    engine::SweepReport r =
        engine::run_sweep(jobs, {.threads = threads, .check = false});
    if (!r.all_ok()) {
      state.SkipWithError("sweep failed");
      return;
    }
    benchmark::DoNotOptimize(r.totals().area);
    samples.push_back(r.wall_ms);
    state.counters["utilization"] = r.utilization();
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(jobs.size()));
  bench::BenchRecord rec;
  rec.family = family;
  rec.L = 0;
  rec.nodes = jobs.size();
  bench::apply_wall_stats(rec, std::move(samples));
  bench::BenchRecorder::instance().add(std::move(rec));
}

void BM_SweepSerial(benchmark::State& state) {
  sweep_batch(state, "sweep-serial", 1);
}

void BM_SweepParallel(benchmark::State& state) {
  sweep_batch(state, "sweep-parallel",
              static_cast<unsigned>(state.range(0)));
}

BENCHMARK(BM_SweepSerial)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepParallel)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_bench_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
