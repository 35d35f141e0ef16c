// The parallel batch layout engine: a sweep run on many workers produces
// results byte-identical to the serial run (submission order, same metrics),
// each unique spec is built exactly once per batch, failures stay
// isolated to their job, and the engine emits the documented obs spans and
// counters.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "engine/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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

/// Everything deterministic about one result, as text. Deliberately excludes
/// timings and the per-job cache_hit flag (which job of a same-spec group
/// builds is scheduling-dependent; only the aggregate counts are stable).
std::string fingerprint(const JobResult& j) {
  std::ostringstream os;
  os << api::format_family_spec(j.spec) << " L=" << j.L << " ok=" << j.ok
     << " err=" << j.error << " nodes=" << j.nodes << " edges=" << j.edges
     << " w=" << j.metrics.width << " h=" << j.metrics.height
     << " area=" << j.metrics.area << " track=" << j.metrics.wiring_area
     << " vol=" << j.metrics.volume << " wire=" << j.metrics.total_wire_length
     << " max=" << j.metrics.max_wire_length << " vias=" << j.metrics.via_count;
  return os.str();
}

std::string fingerprint(const SweepReport& r) {
  std::ostringstream os;
  for (const JobResult& j : r.jobs) os << fingerprint(j) << "\n";
  os << "hits=" << r.cache_hits << " misses=" << r.cache_misses;
  return os.str();
}

TEST(Engine, ParallelSweepIsByteIdenticalToSerial) {
  const std::vector<SweepJob> jobs = hypercube_grid(3, 5, 2, 4);
  SweepReport serial = run_sweep(jobs, {.threads = 1});
  SweepReport parallel = run_sweep(jobs, {.threads = 4});
  ASSERT_TRUE(serial.all_ok());
  EXPECT_EQ(serial.threads, 1u);
  EXPECT_EQ(parallel.threads, 4u);
  EXPECT_EQ(fingerprint(serial), fingerprint(parallel));
}

TEST(Engine, ResultsComeBackInSubmissionOrder) {
  const std::vector<SweepJob> jobs = hypercube_grid(3, 5, 2, 3);
  SweepReport r = run_sweep(jobs, {.threads = 4});
  ASSERT_EQ(r.jobs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(r.jobs[i].spec.value_or("n", 0), jobs[i].spec.value_or("n", 0))
        << i;
    EXPECT_EQ(r.jobs[i].L, jobs[i].options.L) << i;
  }
}

TEST(Engine, BuildsEachUniqueSpecOncePerBatch) {
  // One topology swept over 6 layer counts: 1 build, 5 hits.
  const std::vector<SweepJob> jobs = hypercube_grid(5, 5, 2, 7);
  BatchLayoutEngine eng({.threads = 4});
  SweepReport r = eng.run(jobs);
  ASSERT_TRUE(r.all_ok());
  EXPECT_EQ(r.cache_misses, 1u);
  EXPECT_EQ(r.cache_hits, jobs.size() - 1);

  // The table is local to one batch: the next run builds again.
  SweepReport again = eng.run(jobs);
  ASSERT_TRUE(again.all_ok());
  EXPECT_EQ(again.cache_misses, 1u);
  EXPECT_EQ(again.cache_hits, jobs.size() - 1);
}

TEST(Engine, SharedBuildsMatchASerialReplay) {
  // Every job, whether it built its layout or reused another job's, reports
  // what a serial build -> run_layout replay of that job reports.
  const std::vector<SweepJob> jobs = hypercube_grid(3, 5, 2, 5);
  SweepReport r = run_sweep(jobs, {.threads = 4});
  ASSERT_EQ(r.jobs.size(), jobs.size());
  EXPECT_EQ(r.cache_misses, 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::optional<Orthogonal2Layer> ortho =
        api::FamilyRegistry::instance().build(jobs[i].spec);
    ASSERT_TRUE(ortho.has_value()) << i;
    api::LayoutRequest req;
    req.spec = jobs[i].spec;
    req.options = jobs[i].options;
    const api::LayoutResult res = api::run_layout(*ortho, req);
    JobResult want;
    want.spec = res.spec;
    want.L = jobs[i].options.L;
    want.ok = res.ok;
    want.error = res.error;
    want.nodes = res.nodes;
    want.edges = res.edges;
    want.metrics = res.metrics;
    EXPECT_EQ(fingerprint(r.jobs[i]), fingerprint(want)) << i;
  }
}

TEST(Engine, FailuresStayIsolatedToTheirJob) {
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<SweepJob> jobs;
  jobs.push_back({*reg.parse("hypercube(n=3)"), {.L = 2}});
  jobs.push_back({*reg.parse("hypercube(n=3)"), {.L = 1}});    // bad L
  jobs.push_back({{.family = "moebius", .params = {}}, {.L = 2}});  // bad family
  jobs.push_back({*reg.parse("hypercube(n=4)"), {.L = 2}});

  SweepReport r = run_sweep(jobs, {.threads = 4});
  EXPECT_FALSE(r.all_ok());
  EXPECT_TRUE(r.jobs[0].ok) << r.jobs[0].error;
  EXPECT_FALSE(r.jobs[1].ok);
  EXPECT_NE(r.jobs[1].error.find("layer count"), std::string::npos)
      << r.jobs[1].error;
  EXPECT_FALSE(r.jobs[2].ok);
  EXPECT_NE(r.jobs[2].error.find("unknown network family"), std::string::npos)
      << r.jobs[2].error;
  EXPECT_TRUE(r.jobs[3].ok) << r.jobs[3].error;

  const SweepTotals t = r.totals();
  EXPECT_EQ(t.ok, 2u);
  EXPECT_EQ(t.failed, 2u);
  // Only runnable jobs reach the build table.
  EXPECT_EQ(r.cache_hits + r.cache_misses, 2u);
}

// A spec whose canonical form is in range but whose builder throws (cluster
// size must be a power of two) fails its build: every job sharing the spec
// fails with the same error, deterministically.
TEST(Engine, FailedBuildFailsEverySharingJob) {
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::optional<api::FamilySpec> bad = reg.parse("cluster(k=4,n=2,c=3)");
  ASSERT_TRUE(bad.has_value());
  std::vector<SweepJob> jobs = {{*bad, {.L = 2}}, {*bad, {.L = 4}}};
  SweepReport r = run_sweep(jobs, {.threads = 2});
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_FALSE(r.jobs[0].ok);
  EXPECT_FALSE(r.jobs[1].ok);
  EXPECT_EQ(r.jobs[0].error, r.jobs[1].error);
  EXPECT_FALSE(r.jobs[0].error.empty());
}

TEST(Engine, EmitsDocumentedSpansAndCounters) {
  obs::TraceSession trace;
  obs::MetricsRegistry metrics;
  trace.install();
  metrics.install();
  const std::vector<SweepJob> jobs = hypercube_grid(3, 4, 2, 3);
  SweepReport r = run_sweep(jobs, {.threads = 2});
  obs::TraceSession::uninstall();
  obs::MetricsRegistry::uninstall();
  ASSERT_TRUE(r.all_ok());

  EXPECT_TRUE(trace.has_span("engine.sweep"));
  std::size_t job_spans = 0;
  for (const obs::TraceEvent& ev : trace.events())
    if (std::string_view(ev.name) == "engine.job") ++job_spans;
  EXPECT_EQ(job_spans, jobs.size());

  EXPECT_EQ(metrics.counter("engine.jobs.submitted"), jobs.size());
  EXPECT_EQ(metrics.counter("engine.jobs.completed"), jobs.size());
  EXPECT_EQ(metrics.counter("engine.jobs.failed"), 0u);
  EXPECT_EQ(metrics.counter("engine.cache.miss"), 2u);  // two unique specs
  EXPECT_EQ(metrics.counter("engine.cache.hit"), jobs.size() - 2);
  EXPECT_TRUE(metrics.gauge("engine.wall_ms").has_value());
  EXPECT_TRUE(metrics.histogram("engine.job_ms").has_value());

  EXPECT_GT(r.wall_ms, 0.0);
  EXPECT_GE(r.utilization(), 0.0);
  EXPECT_LE(r.utilization(), 1.05);  // small slack for clock granularity
}

TEST(Engine, RecordsPerWorkerLatencyHistograms) {
  obs::MetricsRegistry metrics;
  metrics.install();
  const std::vector<SweepJob> jobs = hypercube_grid(3, 5, 2, 3);
  SweepReport r = run_sweep(jobs, {.threads = 2});
  obs::MetricsRegistry::uninstall();
  ASSERT_TRUE(r.all_ok());

  // Every job lands in the job-latency and queue-wait histograms of the
  // worker that ran it (which worker takes which job is scheduling-dependent).
  std::uint64_t job_ms = 0, queue_wait_ms = 0;
  for (const char* w : {"engine.worker.0.", "engine.worker.1."}) {
    job_ms += metrics.histogram(std::string(w) + "job_ms")
                  .value_or(obs::HistogramData{}).count;
    queue_wait_ms += metrics.histogram(std::string(w) + "queue_wait_ms")
                         .value_or(obs::HistogramData{}).count;
  }
  EXPECT_EQ(job_ms, jobs.size());
  EXPECT_EQ(queue_wait_ms, jobs.size());
  EXPECT_TRUE(r.warnings.empty());
}

TEST(Engine, ZeroJobsIsANoOp) {
  SweepReport r = run_sweep({}, {.threads = 8});
  EXPECT_TRUE(r.all_ok());
  EXPECT_TRUE(r.jobs.empty());
  EXPECT_EQ(r.cache_hits + r.cache_misses, 0u);
}

}  // namespace
}  // namespace mlvl::engine
