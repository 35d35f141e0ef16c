// Experiment T-sweep — serial vs parallel wall time of the batch layout
// engine on the acceptance grid: hypercube n=6..10 x L=2..8 (35 jobs, 5
// unique topologies). The geometric checker is off, and each batch runs on a
// fresh engine that builds each topology once, so the measured work is 5
// orthogonal builds plus 35 realize+metrics passes.
//
// Two rows land in BENCH_mlvl.json: family "sweep-serial" (1 worker) and
// "sweep-parallel" (8 workers), with nodes = job count and the wall
// statistics of the batch time, so CI can track the parallel speedup across
// revisions.
#include <stdexcept>
#include <string>
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

void sweep_batch(const std::vector<engine::SweepJob>& jobs,
                 const char* family, unsigned threads) {
  bench::BenchRecord rec;
  rec.family = family;
  rec.nodes = jobs.size();
  bench::record_wall(rec, [&] {
    if (!engine::run_sweep(jobs, {.threads = threads, .check = false})
             .all_ok())
      throw std::runtime_error(std::string("bench_sweep: ") + family +
                               " failed");
  });
  bench::BenchRecorder::instance().add(std::move(rec));
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  const std::vector<mlvl::engine::SweepJob> jobs = acceptance_grid();
  sweep_batch(jobs, "sweep-serial", 1);
  sweep_batch(jobs, "sweep-parallel", 8);
  return 0;
}
