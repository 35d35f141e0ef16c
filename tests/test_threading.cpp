// Multi-thread hammer suite for every internally synchronized component:
// MetricsRegistry counters/gauges/histograms, TraceSession span nesting
// across threads, the sweep's build-once table under eight workers sharing
// four specs, DiagnosticSink concurrent reporting, the CancelToken latch
// tree, and the annotated Mutex/CondVar wrappers themselves.
//
// These tests assert *exact* post-join totals (relaxed atomics never lose
// increments; mutexed maps never lose inserts) and monotonicity *during*
// contention. They are designed for the TSan CI lane (MLVL_TSAN=ON): any
// data race in the components under test is a report there, and any torn
// total fails the assertions in every build mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "core/cancel.hpp"
#include "core/checker.hpp"
#include "core/diagnostics.hpp"
#include "core/thread_annotations.hpp"
#include "engine/sweep.hpp"
#include "layout/hypercube_layout.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlvl {
namespace {

constexpr unsigned kThreads = 8;

/// Run `fn(t)` on kThreads threads and join them all.
template <typename Fn>
void run_threads(Fn fn, unsigned n = kThreads) {
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(fn, t);
  for (std::thread& th : pool) th.join();
}

// ---------------------------------------------------------- MetricsRegistry

TEST(ThreadingMetrics, CounterGaugeHistogramHammerKeepsExactTotals) {
  obs::MetricsRegistry reg;
  reg.install();
  constexpr std::uint64_t kOps = 2000;
  run_threads([&](unsigned t) {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      obs::counter_add("hammer.count");
      obs::counter_add("hammer.weighted", 3);
      obs::gauge_set("hammer.gauge", static_cast<double>(i));
      obs::gauge_max("hammer.peak", static_cast<double>(t * kOps + i));
      obs::histogram_record("hammer.hist", static_cast<double>(i % 64));
    }
  });
  obs::MetricsRegistry::uninstall();

  EXPECT_EQ(reg.counter("hammer.count"), kThreads * kOps);
  EXPECT_EQ(reg.counter("hammer.weighted"), 3 * kThreads * kOps);
  // gauge_set keeps *a* last value — any thread's, but a real one.
  ASSERT_TRUE(reg.gauge("hammer.gauge").has_value());
  EXPECT_LT(*reg.gauge("hammer.gauge"), static_cast<double>(kOps));
  // gauge_max is exact: the global maximum survives interleaving.
  EXPECT_EQ(*reg.gauge("hammer.peak"),
            static_cast<double>(kThreads * kOps - 1));
  const std::optional<obs::HistogramData> h = reg.histogram("hammer.hist");
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->count, kThreads * kOps);
  EXPECT_EQ(h->min, 0.0);
  EXPECT_EQ(h->max, 63.0);
}

TEST(ThreadingMetrics, ConcurrentReadersSeeMonotoneCounters) {
  obs::MetricsRegistry reg;
  reg.install();
  std::atomic<bool> done{false};
  std::uint64_t last = 0;
  bool monotone = true;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now = reg.counter("mono.count");
      if (now < last) monotone = false;
      last = now;
    }
  });
  run_threads([&](unsigned) {
    for (int i = 0; i < 2000; ++i) obs::counter_add("mono.count");
  });
  done.store(true, std::memory_order_release);
  reader.join();
  obs::MetricsRegistry::uninstall();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(reg.counter("mono.count"), kThreads * 2000u);
}

// ------------------------------------------------------------ TraceSession

TEST(ThreadingTrace, NestedSpansAcrossThreadsStayBalanced) {
  obs::TraceSession session;
  session.install();
  constexpr int kIters = 200;
  run_threads([&](unsigned) {
    for (int i = 0; i < kIters; ++i) {
      obs::Span outer("threading.outer");
      {
        obs::Span mid("threading.mid");
        obs::Span inner("threading.inner");
      }
    }
  });
  obs::TraceSession::uninstall();

  EXPECT_EQ(session.size(), 3u * kThreads * kIters);
  EXPECT_TRUE(session.has_span("threading.outer"));
  EXPECT_TRUE(session.has_span("threading.inner"));
  // Depth is tracked per thread: outer spans sit at depth 0, mid at 1,
  // inner at 2, regardless of how threads interleave.
  for (const obs::TraceEvent& ev : session.events()) {
    const std::string name = ev.name;
    const std::uint32_t want =
        name == "threading.outer" ? 0u : (name == "threading.mid" ? 1u : 2u);
    ASSERT_EQ(ev.depth, want) << name;
    ASSERT_LT(ev.tid, kThreads + 2u);  // small dense thread indices
  }
}

// -------------------------------------------------------------- BuildTable

TEST(ThreadingBuildTable, EightWorkersBuildEachSpecOnce) {
  // Four specs, each swept over many layer counts and interleaved so that
  // workers collide on every slot: each spec is built exactly once, and
  // every job reports what a one-worker run reports.
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<engine::SweepJob> jobs;
  for (std::uint32_t L = 2; L <= 13; ++L)
    for (const char* spec : {"hypercube(n=5)", "kary(k=4,n=2)",
                             "ccc(n=4)", "butterfly(k=4)"})
      jobs.push_back({*reg.parse(spec), {.L = L}});
  const engine::SweepReport par = engine::run_sweep(jobs, {.threads = 8});
  const engine::SweepReport ser = engine::run_sweep(jobs, {.threads = 1});
  ASSERT_TRUE(par.all_ok());
  EXPECT_EQ(par.cache_misses, 4u);
  EXPECT_EQ(par.cache_hits, jobs.size() - 4);
  ASSERT_EQ(par.jobs.size(), ser.jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const engine::JobResult& p = par.jobs[i];
    const engine::JobResult& q = ser.jobs[i];
    EXPECT_EQ(p.nodes, q.nodes) << i;
    EXPECT_EQ(p.edges, q.edges) << i;
    EXPECT_EQ(p.metrics.width, q.metrics.width) << i;
    EXPECT_EQ(p.metrics.height, q.metrics.height) << i;
    EXPECT_EQ(p.metrics.area, q.metrics.area) << i;
    EXPECT_EQ(p.metrics.volume, q.metrics.volume) << i;
    EXPECT_EQ(p.metrics.total_wire_length, q.metrics.total_wire_length) << i;
    EXPECT_EQ(p.metrics.max_wire_length, q.metrics.max_wire_length) << i;
    EXPECT_EQ(p.metrics.via_count, q.metrics.via_count) << i;
  }
}

// ---------------------------------------------------------- DiagnosticSink

TEST(ThreadingDiagnostics, ConcurrentReportsNeverLoseTotals) {
  DiagnosticSink sink(64);
  constexpr int kPerThread = 500;
  run_threads([&](unsigned t) {
    for (int i = 0; i < kPerThread; ++i) {
      Diagnostic d;
      d.code = Code::kPointCollision;
      // A mix of severities exercises the eviction path at capacity.
      d.severity = (t + i) % 3 == 0 ? Severity::kError : Severity::kWarning;
      sink.report(std::move(d));
    }
  });

  EXPECT_EQ(sink.total_errors() + sink.total_warnings(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(sink.size(), 64u);  // exactly at capacity, never past it
  EXPECT_TRUE(sink.full());
  EXPECT_EQ(sink.size() + sink.dropped(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(sink.errors() + sink.warnings(), sink.size());
  EXPECT_TRUE(sink.has(Code::kPointCollision));
}

// -------------------------------------------------------------- CancelToken

TEST(ThreadingCancel, LatchPropagatesThroughTheTokenTree) {
  CancelToken root;
  CancelToken sweep(&root);
  std::vector<std::unique_ptr<CancelToken>> jobs;
  for (unsigned i = 0; i < kThreads; ++i)
    jobs.push_back(std::make_unique<CancelToken>(&sweep));

  std::atomic<unsigned> observed{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      while (!jobs[t]->tripped()) std::this_thread::yield();
      // The release/acquire latch guarantees the reason is visible here.
      EXPECT_STREQ(jobs[t]->reason(), "shutdown");
      observed.fetch_add(1, std::memory_order_relaxed);
    });
  root.cancel("shutdown");
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(observed.load(), kThreads);
  EXPECT_TRUE(sweep.tripped_flag_only() || sweep.tripped());
}

// ------------------------------------------------------ Concurrent checkers

/// Independent Checker instances are safe to run concurrently, as engine
/// workers run them — each on its own thread's run buffers. The only
/// shared state is the installed metrics registry, whose totals must come
/// out exact.
TEST(ThreadingChecker, ConcurrentCheckersKeepExactMetricTotals) {
  obs::MetricsRegistry reg;
  reg.install();
  Orthogonal2Layer o = layout::layout_hypercube(3);
  MultilayerLayout ml = realize(o, {.L = 4});

  const std::uint64_t points =
      Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check().points;
  std::atomic<std::uint64_t> oks{0};
  std::atomic<std::uint64_t> same_points{0};
  constexpr int kIters = 4;
  run_threads([&](unsigned) {
    for (int i = 0; i < kIters; ++i) {
      Checker checker(o.graph, ml.geom, {.via_rule = ml.required_rule});
      DiagnosticSink sink(64);
      CheckReport r = checker.check(sink);
      if (r.ok) oks.fetch_add(1, std::memory_order_relaxed);
      if (r.points == points)
        same_points.fetch_add(1, std::memory_order_relaxed);
    }
  });
  obs::MetricsRegistry::uninstall();

  EXPECT_EQ(oks.load(), static_cast<std::uint64_t>(kThreads) * kIters);
  // Every pass counted the same claims, and the shared gauge saw them.
  EXPECT_EQ(same_points.load(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.gauge("grid.peak_occupancy").value_or(-1),
            static_cast<double>(points));
}

// ------------------------------------------------- Mutex/CondVar primitives

TEST(ThreadingPrimitives, MutexCondVarHandshake) {
  Mutex mu;
  CondVar cv;
  int stage = 0;  // guarded by mu
  std::thread consumer([&] {
    MutexLock lock(&mu);
    while (stage < static_cast<int>(kThreads)) cv.wait(mu);
    stage = -1;
  });
  for (unsigned t = 0; t < kThreads; ++t) {
    {
      MutexLock lock(&mu);
      ++stage;
    }
    cv.notify_one();
  }
  consumer.join();
  MutexLock lock(&mu);
  EXPECT_EQ(stage, -1);
}

}  // namespace
}  // namespace mlvl
