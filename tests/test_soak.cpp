// Resource governance and failure containment: deadlines yield structured
// verdicts (never hung workers), and a shared build cancelled by one job's
// deadline is redone rather than failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "engine/sweep.hpp"
#include "layout/hypercube_layout.hpp"

namespace mlvl::engine {
namespace {

std::vector<SweepJob> hypercube_grid(std::uint32_t n_lo, std::uint32_t n_hi,
                                     std::uint32_t l_lo, std::uint32_t l_hi) {
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<SweepJob> jobs;
  for (std::uint32_t n = n_lo; n <= n_hi; ++n) {
    std::optional<api::FamilySpec> spec =
        reg.parse("hypercube(n=" + std::to_string(n) + ")");
    for (std::uint32_t L = l_lo; L <= l_hi; ++L)
      jobs.push_back({*spec, {.L = L}});
  }
  return jobs;
}

/// Deterministic view of one result: excludes timings and cache_hit (which
/// job of a same-spec group builds is scheduling-dependent).
std::string fingerprint(const JobResult& j) {
  std::ostringstream os;
  os << api::format_family_spec(j.spec) << " L=" << j.L << " ok=" << j.ok
     << " verdict=" << verdict_name(j.verdict) << " err=" << j.error
     << " nodes=" << j.nodes << " edges=" << j.edges
     << " area=" << j.metrics.area << " vol=" << j.metrics.volume
     << " wire=" << j.metrics.total_wire_length
     << " vias=" << j.metrics.via_count;
  return os.str();
}

// --------------------------------------------------------------- deadlines

/// Jobs over "slowbuild(n)", a family registered here whose build sleeps
/// 20 ms, polls the job's cancel token, then builds hypercube(n). Any budget
/// under 20 ms trips at that poll on every host, so the deadline tests do
/// not depend on how fast a real pipeline runs.
std::vector<SweepJob> slowbuild_grid(std::uint32_t n_lo, std::uint32_t n_hi,
                                     std::uint32_t l_lo, std::uint32_t l_hi) {
  api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  reg.add({.name = "slowbuild",
           .summary = "hypercube built after a 20 ms sleep (tests only)",
           .params = {{.name = "n", .min = 2, .max = 4}},
           .sample = "slowbuild(n=2)",
           .build = [](const api::FamilySpec& s) {
             std::this_thread::sleep_for(std::chrono::milliseconds(20));
             poll_cancellation_block("topology");
             return layout::layout_hypercube(
                 static_cast<std::uint32_t>(s.value_or("n", 2)));
           }});
  std::vector<SweepJob> jobs;
  for (std::uint32_t n = n_lo; n <= n_hi; ++n) {
    std::optional<api::FamilySpec> spec =
        reg.parse("slowbuild(n=" + std::to_string(n) + ")");
    for (std::uint32_t L = l_lo; L <= l_hi; ++L)
      jobs.push_back({*spec, {.L = L}});
  }
  return jobs;
}

TEST(Governance, JobDeadlineYieldsStructuredVerdictNotAHungWorker) {
  // A 1 ms budget on a 20 ms build trips inside the pipeline; the job comes
  // back kDeadline with a phase-stamped error, and the next batch on an
  // unbudgeted engine still succeeds.
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<SweepJob> jobs = slowbuild_grid(3, 3, 2, 2);
  SweepOptions opt;
  opt.threads = 1;
  opt.job_deadline_ms = 1;
  SweepReport r = run_sweep(jobs, opt);
  ASSERT_EQ(r.jobs.size(), 1u);
  const JobResult& j = r.jobs[0];
  EXPECT_FALSE(j.ok);
  EXPECT_EQ(j.verdict, JobVerdict::kDeadline);
  EXPECT_NE(j.error.find("deadline exceeded"), std::string::npos) << j.error;
  EXPECT_NE(j.error.find("in phase"), std::string::npos) << j.error;
  EXPECT_EQ(r.totals().deadline, 1u);

  // The deadline is per job, not per engine: the next batch runs unbudgeted.
  SweepReport ok = run_sweep({{*reg.parse("hypercube(n=3)"), {.L = 2}}}, {});
  EXPECT_TRUE(ok.all_ok());
}

TEST(Governance, SweepDeadlineSkipsUnstartedJobs) {
  // One worker, a 1 ms whole-batch budget, and four jobs whose builds each
  // take 20 ms: the batch cannot finish, and every job resolves as deadline
  // or skipped — with the tail deterministically skipped because the budget
  // tripped before pickup.
  std::vector<SweepJob> jobs = slowbuild_grid(2, 3, 2, 3);
  SweepOptions opt;
  opt.threads = 1;
  opt.sweep_deadline_ms = 1;
  SweepReport r = run_sweep(jobs, opt);
  ASSERT_EQ(r.jobs.size(), jobs.size());
  SweepTotals t = r.totals();
  EXPECT_EQ(t.ok, 0u);
  EXPECT_EQ(t.deadline + t.skipped, jobs.size());
  EXPECT_GE(t.skipped, 1u);  // the tail never started
  for (const JobResult& j : r.jobs) {
    EXPECT_FALSE(j.ok);
    EXPECT_TRUE(j.verdict == JobVerdict::kDeadline ||
                j.verdict == JobVerdict::kSkipped)
        << verdict_name(j.verdict);
    if (j.verdict == JobVerdict::kSkipped) {
      EXPECT_EQ(j.run_ms, 0.0);
    }
  }
  // A tripped sweep budget surfaces in the report's warnings.
  bool warned = false;
  for (const Diagnostic& d : r.warnings)
    if (d.code == Code::kSweepDeadline) warned = true;
  EXPECT_TRUE(warned);
}

TEST(Governance, ExternalCancelSkipsTheWholeBatch) {
  BatchLayoutEngine eng({.threads = 2});
  eng.request_cancel();  // shutdown before the batch: nothing should run
  SweepReport r = eng.run(hypercube_grid(3, 4, 2, 2));
  for (const JobResult& j : r.jobs) {
    EXPECT_EQ(j.verdict, JobVerdict::kSkipped) << verdict_name(j.verdict);
    EXPECT_EQ(j.run_ms, 0.0);
  }
}

// ------------------------------------------------------------ shared build

/// Fastest of two serial builds of `spec`, in ms.
double build_ms(const api::FamilySpec& spec) {
  double best = 0;
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)api::FamilyRegistry::instance().build(spec, nullptr);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best = rep == 0 ? ms : std::min(best, ms);
  }
  return best;
}

TEST(SharedBuild, CancelledBuildIsRedoneNotFailed) {
  // The first and last jobs share one butterfly build. Two workers and a
  // per-job budget shorter than that build: the first job's build is
  // cancelled while the other worker, done with the hypercube jobs, waits
  // on it for the last job. The waiter must build under its own budget and
  // end ok or deadline, never inherit the cancellation as a failure.
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  const api::FamilySpec fly = *reg.parse("butterfly(k=12)");
  const api::FamilySpec cube = *reg.parse("hypercube(n=6)");
  std::vector<SweepJob> jobs;
  jobs.push_back({fly, {.L = 2}});
  for (int k = 0; k < 6; ++k) jobs.push_back({cube, {.L = 2}});
  jobs.push_back({fly, {.L = 3}});
  const double full_ms = build_ms(fly);
  constexpr int kTrials = 20;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Budgets spread over 0.5-0.88 of the build time.
    const double frac = 0.5 + 0.38 * trial / (kTrials - 1);
    SweepOptions opt;
    opt.threads = 2;
    opt.job_deadline_ms = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(full_ms * frac));
    SweepReport r = run_sweep(jobs, opt);
    for (const JobResult& j : r.jobs) {
      EXPECT_TRUE(j.verdict == JobVerdict::kOk ||
                  j.verdict == JobVerdict::kDeadline)
          << "trial " << trial << ": " << fingerprint(j);
    }
  }
}

}  // namespace
}  // namespace mlvl::engine
