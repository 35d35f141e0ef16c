// Flight recorder: profiler math on hand-built span sets (exclusive time
// under nesting, critical path, per-thread utilization), the Chrome-trace
// round trip.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checker.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "core/multilayer.hpp"
#include "layout/hypercube_layout.hpp"
#include "obs/profile.hpp"
#include "obs/run_context.hpp"

namespace {

using namespace mlvl;

obs::ProfileEvent ev(const char* name, std::uint64_t ts, std::uint64_t dur,
                     std::uint32_t tid) {
  obs::ProfileEvent e;
  e.name = name;
  e.ts_us = ts;
  e.dur_us = dur;
  e.tid = tid;
  return e;
}

const obs::PhaseStats* phase(const obs::ProfileReport& rep,
                             const std::string& name) {
  for (const obs::PhaseStats& p : rep.phases)
    if (p.name == name) return &p;
  return nullptr;
}

const obs::ThreadStats* thread_stats(const obs::ProfileReport& rep,
                                     std::uint32_t tid) {
  for (const obs::ThreadStats& t : rep.threads)
    if (t.tid == tid) return &t;
  return nullptr;
}

// ------------------------------------------------------- exclusive time

TEST(Profile, ExclusiveTimeWithNestingAcrossThreads) {
  // tid 0: A[0,100) > { B[10,40) > C[15,20), D[50,80) }; tid 1: E[0,60).
  std::vector<obs::ProfileEvent> events = {
      ev("A", 0, 100, 0), ev("B", 10, 30, 0), ev("C", 15, 5, 0),
      ev("D", 50, 30, 0), ev("E", 0, 60, 1),
  };
  obs::ProfileReport rep = obs::profile_events(events, "t1");

  EXPECT_EQ(rep.run_id, "t1");
  EXPECT_EQ(rep.events, 5u);
  EXPECT_EQ(rep.wall_us, 100u);

  ASSERT_NE(phase(rep, "A"), nullptr);
  EXPECT_EQ(phase(rep, "A")->incl_us, 100u);
  EXPECT_EQ(phase(rep, "A")->excl_us, 40u);  // 100 - B(30) - D(30)
  EXPECT_EQ(phase(rep, "B")->excl_us, 25u);  // 30 - C(5)
  EXPECT_EQ(phase(rep, "C")->excl_us, 5u);
  EXPECT_EQ(phase(rep, "D")->excl_us, 30u);
  EXPECT_EQ(phase(rep, "E")->excl_us, 60u);  // other thread: independent

  // Per-thread self times are a partition of the thread's busy time.
  const obs::ThreadStats* t0 = thread_stats(rep, 0);
  const obs::ThreadStats* t1 = thread_stats(rep, 1);
  ASSERT_NE(t0, nullptr);
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t0->busy_us, 100u);  // only the root counts
  EXPECT_EQ(t0->self_us, 100u);  // 40 + 25 + 5 + 30
  EXPECT_EQ(t0->label, "main");
  EXPECT_EQ(t1->busy_us, 60u);
  EXPECT_EQ(t1->label, "worker-1");
  EXPECT_LE(t0->self_us, rep.wall_us);
  EXPECT_LE(t1->self_us, rep.wall_us);
}

// --------------------------------------------------------- critical path

TEST(Profile, CriticalPathOnKnownTree) {
  // A[0,100) with children B(dur 30, child B1 dur 8) and D(dur 40, child
  // D1 dur 30): the path must descend A -> D -> D1.
  std::vector<obs::ProfileEvent> events = {
      ev("A", 0, 100, 0),  ev("B", 10, 30, 0), ev("B1", 12, 8, 0),
      ev("D", 50, 40, 0),  ev("D1", 55, 30, 0),
  };
  obs::ProfileReport rep = obs::profile_events(events, "t2");
  ASSERT_EQ(rep.critical_path.size(), 3u);
  EXPECT_EQ(rep.critical_path[0].name, "A");
  EXPECT_EQ(rep.critical_path[1].name, "D");
  EXPECT_EQ(rep.critical_path[2].name, "D1");
  EXPECT_EQ(rep.critical_path[1].dur_us, 40u);
  EXPECT_EQ(rep.critical_path[1].excl_us, 10u);  // 40 - 30
}

// ---------------------------------------------------------- utilization

TEST(Profile, UtilizationOnSyntheticTwoThreadTrace) {
  // tid 0 busy [0,100), tid 1 busy [100,160): wall 160, utilization
  // 0.625 / 0.375 — idle time is visible, busy never exceeds wall.
  std::vector<obs::ProfileEvent> events = {
      ev("A", 0, 100, 0),
      ev("E", 100, 60, 1),
  };
  obs::ProfileReport rep = obs::profile_events(events, "t3");
  EXPECT_EQ(rep.wall_us, 160u);
  const obs::ThreadStats* t0 = thread_stats(rep, 0);
  const obs::ThreadStats* t1 = thread_stats(rep, 1);
  ASSERT_NE(t0, nullptr);
  ASSERT_NE(t1, nullptr);
  EXPECT_DOUBLE_EQ(t0->utilization, 100.0 / 160.0);
  EXPECT_DOUBLE_EQ(t1->utilization, 60.0 / 160.0);
  for (const obs::ThreadStats& t : rep.threads) {
    EXPECT_LE(t.busy_us, rep.wall_us);
    EXPECT_LE(t.self_us, rep.wall_us);
  }
}

// -------------------------------------------------------- slowest jobs

TEST(Profile, TopKSlowestJobsCarryTheirArgs) {
  std::vector<obs::ProfileEvent> events;
  for (int i = 1; i <= 3; ++i) {
    obs::ProfileEvent e =
        ev("engine.job", std::uint64_t(i) * 100, std::uint64_t(i) * 10, 0);
    e.args = {{"spec", "hypercube(n=" + std::to_string(i) + ")"},
              {"L", std::to_string(i)},
              {"verdict", "ok"},
              {"worker", "2"}};
    events.push_back(std::move(e));
  }
  obs::ProfileOptions opt;
  opt.top_k = 2;
  obs::ProfileReport rep = obs::profile_events(events, "t4", opt);
  ASSERT_EQ(rep.slowest_jobs.size(), 2u);  // capped at top_k
  EXPECT_EQ(rep.slowest_jobs[0].spec, "hypercube(n=3)");  // slowest first
  EXPECT_EQ(rep.slowest_jobs[0].dur_us, 30u);
  EXPECT_EQ(rep.slowest_jobs[0].L, 3u);
  EXPECT_EQ(rep.slowest_jobs[0].verdict, "ok");
  EXPECT_EQ(rep.slowest_jobs[0].worker, 2u);
  EXPECT_EQ(rep.slowest_jobs[1].spec, "hypercube(n=2)");
}

// ----------------------------------------------------------- round trip

TEST(Profile, RoundTripThroughWrittenChromeTrace) {
  obs::set_run_id("round-trip-run");
  obs::TraceSession session;
  session.install();
  {
    obs::Span job("engine.job");
    job.arg("spec", "hypercube(n=4)").arg("L", std::uint64_t{4})
        .arg("verdict", "ok");
    obs::Span inner("realize");
  }
  std::thread worker([] { obs::Span span("check"); });
  worker.join();
  obs::TraceSession::uninstall();

  const obs::ProfileReport live = obs::profile_session(session);
  std::ostringstream os;
  session.write_chrome_trace(os);
  std::string err;
  std::optional<obs::ProfileReport> parsed =
      obs::profile_chrome_trace_text(os.str(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;

  // The re-parsed profile agrees with the live one exactly: same id, same
  // phase aggregates, same thread accounting, same job tags.
  EXPECT_EQ(parsed->run_id, "round-trip-run");
  EXPECT_EQ(parsed->run_id, live.run_id);
  EXPECT_EQ(parsed->events, live.events);
  EXPECT_EQ(parsed->wall_us, live.wall_us);
  ASSERT_EQ(parsed->phases.size(), live.phases.size());
  for (std::size_t i = 0; i < live.phases.size(); ++i) {
    EXPECT_EQ(parsed->phases[i].name, live.phases[i].name);
    EXPECT_EQ(parsed->phases[i].count, live.phases[i].count);
    EXPECT_EQ(parsed->phases[i].incl_us, live.phases[i].incl_us);
    EXPECT_EQ(parsed->phases[i].excl_us, live.phases[i].excl_us);
  }
  ASSERT_EQ(parsed->threads.size(), live.threads.size());
  for (std::size_t i = 0; i < live.threads.size(); ++i) {
    EXPECT_EQ(parsed->threads[i].busy_us, live.threads[i].busy_us);
    EXPECT_EQ(parsed->threads[i].self_us, live.threads[i].self_us);
  }
  ASSERT_EQ(parsed->slowest_jobs.size(), 1u);
  EXPECT_EQ(parsed->slowest_jobs[0].spec, "hypercube(n=4)");
  EXPECT_EQ(parsed->slowest_jobs[0].L, 4u);
  EXPECT_EQ(parsed->slowest_jobs[0].verdict, "ok");
}

TEST(Profile, RejectsNonTraceInput) {
  std::string err;
  EXPECT_FALSE(obs::profile_chrome_trace_text("not json", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(obs::profile_chrome_trace_text("{\"a\": 1}", &err).has_value());
  EXPECT_FALSE(
      obs::load_profile_chrome_trace("no_such_trace.json", &err).has_value());
}

// ------------------------------------------- real pipeline + invariants

TEST(Profile, PipelineSelfTimesSumToAtMostWall) {
  obs::TraceSession session;
  session.install();
  {
    Orthogonal2Layer o = layout::layout_hypercube(3);
    MultilayerLayout ml = realize(o, {.L = 4});
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    ASSERT_TRUE(res.ok) << res.error;
  }
  obs::TraceSession::uninstall();

  obs::ProfileReport rep = obs::profile_session(session);
  EXPECT_TRUE(rep.has_phase("placement"));
  EXPECT_TRUE(rep.has_phase("interval"));
  EXPECT_TRUE(rep.has_phase("realize"));
  EXPECT_TRUE(rep.has_phase("check"));
  ASSERT_GT(rep.wall_us, 0u);
  // The acceptance invariant: per thread, exclusive times partition busy
  // time, and busy time can never exceed the trace wall time.
  std::uint64_t total_excl = 0;
  for (const obs::PhaseStats& p : rep.phases) total_excl += p.excl_us;
  std::uint64_t total_self = 0;
  for (const obs::ThreadStats& t : rep.threads) {
    EXPECT_LE(t.self_us, rep.wall_us);
    EXPECT_LE(t.busy_us, rep.wall_us);
    EXPECT_EQ(t.self_us, t.busy_us);  // self times partition the roots
    total_self += t.self_us;
  }
  EXPECT_EQ(total_excl, total_self);  // phase view and thread view agree
  EXPECT_FALSE(rep.critical_path.empty());
}

// ----------------------------------------------------- report emission

TEST(Profile, JsonReportIsWellFormed) {
  std::vector<obs::ProfileEvent> events = {ev("A", 0, 100, 0),
                                           ev("B", 10, 30, 0)};
  obs::ProfileReport rep = obs::profile_events(events, "json-run");
  std::ostringstream os;
  rep.write_json(os);
  std::optional<io::JsonValue> root = io::parse_json(os.str());
  ASSERT_TRUE(root.has_value()) << os.str();
  EXPECT_EQ(root->find("schema")->str, "mlvl-profile-v1");
  EXPECT_EQ(root->find("run_id")->str, "json-run");
  EXPECT_EQ(root->find("wall_us")->number, 100);
  ASSERT_EQ(root->find("phases")->items.size(), 2u);
  ASSERT_EQ(root->find("threads")->items.size(), 1u);
  EXPECT_EQ(root->find("threads")->items[0].find("label")->str, "main");

  std::ostringstream text;
  rep.write_text(text);
  EXPECT_NE(text.str().find("profile: run json-run"), std::string::npos);
  EXPECT_NE(text.str().find("critical path:"), std::string::npos);

  // Empty input: a zeroed, still well-formed report.
  obs::ProfileReport empty = obs::profile_events({}, "empty");
  std::ostringstream eos;
  empty.write_json(eos);
  EXPECT_TRUE(io::parse_json(eos.str()).has_value()) << eos.str();
}

}  // namespace
