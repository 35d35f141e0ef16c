// Resource governance and failure containment: deadlines yield structured
// verdicts (never hung workers), a shared build cancelled by one job's
// deadline is redone rather than failed, the crash journal round-trips every
// finished job, and a killed-and-resumed sweep is byte-identical to an
// uninterrupted one.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "engine/journal.hpp"
#include "engine/sweep.hpp"

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

std::string fingerprint(const SweepReport& r) {
  std::ostringstream os;
  for (const JobResult& j : r.jobs) os << fingerprint(j) << "\n";
  return os.str();
}

/// RAII temp file: removed on scope exit so test reruns start clean.
struct TempFile {
  explicit TempFile(const char* name) : path(name) { std::remove(name); }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// ---------------------------------------------------------------- verdicts

TEST(Governance, VerdictNamesRoundTrip) {
  for (JobVerdict v : {JobVerdict::kOk, JobVerdict::kFailed,
                       JobVerdict::kDeadline, JobVerdict::kSkipped}) {
    JobVerdict back = JobVerdict::kOk;
    ASSERT_TRUE(verdict_from_name(verdict_name(v), back)) << verdict_name(v);
    EXPECT_EQ(back, v);
  }
  JobVerdict ignored = JobVerdict::kOk;
  EXPECT_FALSE(verdict_from_name("bogus", ignored));
  EXPECT_FALSE(verdict_from_name("", ignored));
}

// --------------------------------------------------------------- deadlines

TEST(Governance, JobDeadlineYieldsStructuredVerdictNotAHungWorker) {
  // A 1 ms budget on a 1024-node hypercube trips inside the pipeline; the
  // job comes back kDeadline with a phase-stamped error, and an unbudgeted
  // sibling in the same batch still succeeds.
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<SweepJob> jobs;
  jobs.push_back({*reg.parse("hypercube(n=10)"), {.L = 2}});
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
  // One worker, a 1 ms whole-batch budget, and four slow jobs: the batch
  // cannot finish, and every job resolves as deadline or skipped — with the
  // tail deterministically skipped because the budget tripped before pickup.
  // Each job must take well over the budget: a checked hypercube(9) at L=2
  // runs in under 1 ms in an optimized build, hypercube(10) about four
  // times as long.
  std::vector<SweepJob> jobs = hypercube_grid(10, 11, 2, 3);
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

TEST(SharedBuild, CancelledBuildIsRedoneNotJournaledAsFailed) {
  // The first and last jobs share one butterfly build. Two workers and a
  // per-job budget shorter than that build: the first job's build is
  // cancelled while the other worker, done with the hypercube jobs, waits
  // on it for the last job. The waiter must build under its own budget and
  // end ok or deadline, never as a failure that the journal records and
  // --resume would then skip.
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
    TempFile tmp("test_soak_shared_build.mlvlj");
    SweepReport r;
    {
      SweepJournal journal(tmp.path);
      ASSERT_TRUE(journal.valid());
      SweepOptions opt;
      opt.threads = 2;
      opt.job_deadline_ms = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(full_ms * frac));
      opt.journal = &journal;
      r = run_sweep(jobs, opt);
    }
    for (const JobResult& j : r.jobs) {
      EXPECT_TRUE(j.verdict == JobVerdict::kOk ||
                  j.verdict == JobVerdict::kDeadline)
          << "trial " << trial << ": " << fingerprint(j);
    }
    std::ifstream in(tmp.path);
    std::string line;
    while (std::getline(in, line)) {
      EXPECT_EQ(line.find("\tverdict=failed\t"), std::string::npos)
          << "trial " << trial << ": " << line;
    }
  }
}

// ----------------------------------------------------------------- journal

TEST(Journal, RoundTripsEveryFinishedJob) {
  TempFile tmp("test_soak_journal_roundtrip.mlvlj");
  std::vector<SweepJob> jobs = hypercube_grid(3, 4, 2, 3);
  SweepReport r;
  {
    SweepJournal journal(tmp.path);
    ASSERT_TRUE(journal.valid());
    SweepOptions opt;
    opt.threads = 2;
    opt.journal = &journal;
    r = run_sweep(jobs, opt);
    ASSERT_TRUE(r.all_ok());
    EXPECT_EQ(journal.recorded(), jobs.size());
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->malformed_lines, 0u);
  EXPECT_EQ(resume->done.size(), jobs.size());
  for (const JobResult& j : r.jobs) {
    const JobResult* rec = resume->find(sweep_job_key(j.spec, j.L));
    ASSERT_NE(rec, nullptr) << sweep_job_key(j.spec, j.L);
    EXPECT_EQ(rec->verdict, j.verdict);
    EXPECT_EQ(rec->cache_hit, j.cache_hit);
    EXPECT_EQ(rec->nodes, j.nodes);
    EXPECT_EQ(rec->edges, j.edges);
    EXPECT_EQ(rec->metrics.area, j.metrics.area);
    EXPECT_EQ(rec->metrics.volume, j.metrics.volume);
    EXPECT_EQ(rec->metrics.total_wire_length, j.metrics.total_wire_length);
    EXPECT_EQ(rec->metrics.via_count, j.metrics.via_count);
    EXPECT_TRUE(rec->resumed);
  }
}

TEST(Journal, ErrorTextEscapesControlCharacters) {
  TempFile tmp("test_soak_journal_escape.mlvlj");
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  JobResult r;
  r.spec = *reg.parse("hypercube(n=3)");
  r.L = 2;
  r.verdict = JobVerdict::kFailed;
  r.error = "tab\there\nnewline\\backslash";
  {
    SweepJournal journal(tmp.path);
    ASSERT_TRUE(journal.valid());
    journal.record(r);
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  ASSERT_EQ(resume->malformed_lines, 0u);
  const JobResult* rec = resume->find(sweep_job_key(r.spec, r.L));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->error, r.error);
  EXPECT_EQ(rec->verdict, JobVerdict::kFailed);
  EXPECT_FALSE(rec->ok);
}

TEST(Journal, TornTrailingLineIsCountedNotFatal) {
  TempFile tmp("test_soak_journal_torn.mlvlj");
  {
    SweepJournal journal(tmp.path);
    SweepOptions opt;
    opt.threads = 1;
    opt.journal = &journal;
    ASSERT_TRUE(run_sweep(hypercube_grid(3, 3, 2, 3), opt).all_ok());
  }
  {  // simulate the torn tail a crash leaves: a record cut mid-write
    std::ofstream os(tmp.path, std::ios::app);
    os << "hypercube(n=9)|L=2\tverdict=ok\tattempts=1";  // no err= terminator
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->malformed_lines, 1u);
  EXPECT_EQ(resume->done.size(), 2u);  // the intact records still load
  EXPECT_EQ(resume->find("hypercube(n=9)|L=2"), nullptr);
}

TEST(Journal, RetiredRetriedVerdictLoadsAsOk) {
  // Journals from before the retry layer was removed carry verdict=retried
  // and attempts=; they still resume, as successes.
  TempFile tmp("test_soak_journal_retried.mlvlj");
  {
    std::ofstream os(tmp.path);
    os << SweepJournal::kHeader << "\n"
       << "hypercube(n=3)|L=2\tverdict=retried\tattempts=2\tcache_hit=0"
          "\tnodes=8\tedges=12\terr=\n";
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->malformed_lines, 0u);
  const JobResult* rec = resume->find("hypercube(n=3)|L=2");
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->ok);
  EXPECT_EQ(rec->verdict, JobVerdict::kOk);
  EXPECT_EQ(rec->nodes, 8u);
}

TEST(Journal, WrongHeaderAndMissingFileAreStructuredFailures) {
  DiagnosticSink sink;
  EXPECT_FALSE(SweepJournal::load("no_such_journal_file.mlvlj").has_value());
  TempFile tmp("test_soak_journal_badheader.mlvlj");
  {
    std::ofstream os(tmp.path);
    os << "some-other-format-v9\n";
  }
  EXPECT_FALSE(SweepJournal::load(tmp.path, &sink).has_value());
  bool diagnosed = false;
  for (const Diagnostic& d : sink.diagnostics())
    if (d.code == Code::kJournalError) diagnosed = true;
  EXPECT_TRUE(diagnosed);
}

// ------------------------------------------------------------------ resume

TEST(Resume, InterruptedSweepResumesByteIdentical) {
  // Run the first half of a grid with a journal (the "crash" happens after),
  // then resume the full grid against that journal: the combined output must
  // be byte-identical to one uninterrupted serial run, and the resumed half
  // must not re-execute.
  TempFile tmp("test_soak_resume.mlvlj");
  const std::vector<SweepJob> all = hypercube_grid(3, 5, 2, 3);
  const std::vector<SweepJob> half(all.begin(),
                                   all.begin() + std::ptrdiff_t(all.size() / 2));
  {
    SweepJournal journal(tmp.path);
    SweepOptions opt;
    opt.threads = 1;
    opt.journal = &journal;
    ASSERT_TRUE(run_sweep(half, opt).all_ok());
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  ASSERT_EQ(resume->done.size(), half.size());

  SweepOptions opt;
  opt.threads = 1;
  opt.resume = &*resume;
  SweepReport resumed = run_sweep(all, opt);
  SweepReport uninterrupted = run_sweep(all, {.threads = 1});

  ASSERT_TRUE(resumed.all_ok());
  EXPECT_EQ(fingerprint(resumed), fingerprint(uninterrupted));
  EXPECT_EQ(resumed.resumed, half.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(resumed.jobs[i].resumed, i < half.size()) << i;
}

TEST(Resume, PreflightFailuresReFailIdenticallyWithoutJournaling) {
  // A job rejected before reaching a worker (bad layer count) is not
  // journaled — re-deriving the validation failure on resume is free — but
  // a resumed run still reports it byte-identically to the original.
  TempFile tmp("test_soak_resume_fail.mlvlj");
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<SweepJob> jobs;
  jobs.push_back({*reg.parse("hypercube(n=3)"), {.L = 1}});  // invalid L
  jobs.push_back({*reg.parse("hypercube(n=3)"), {.L = 2}});
  std::string original_error;
  {
    SweepJournal journal(tmp.path);
    SweepOptions opt;
    opt.threads = 1;
    opt.journal = &journal;
    SweepReport r = run_sweep(jobs, opt);
    EXPECT_FALSE(r.jobs[0].ok);
    original_error = r.jobs[0].error;
    EXPECT_EQ(journal.recorded(), 1u);  // only the worker-finished job
  }
  std::optional<SweepResume> resume = SweepJournal::load(tmp.path);
  ASSERT_TRUE(resume.has_value());
  ASSERT_EQ(resume->done.size(), 1u);
  SweepOptions opt;
  opt.threads = 1;
  opt.resume = &*resume;
  SweepReport r = run_sweep(jobs, opt);
  EXPECT_EQ(r.resumed, 1u);
  EXPECT_FALSE(r.jobs[0].ok);
  EXPECT_FALSE(r.jobs[0].resumed);  // re-failed live, not reproduced
  EXPECT_EQ(r.jobs[0].error, original_error);
  EXPECT_TRUE(r.jobs[1].ok);
  EXPECT_TRUE(r.jobs[1].resumed);
}

}  // namespace
}  // namespace mlvl::engine
