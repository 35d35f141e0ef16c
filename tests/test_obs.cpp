// Observability subsystem: scoped spans, the metrics registry, Chrome
// trace-event emission, the null-sink fast path, and the end-to-end
// instrumentation of the layout pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/lint.hpp"
#include "core/cancel.hpp"
#include "core/checker.hpp"
#include "core/diagnostics.hpp"
#include "core/fold.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "core/multilayer.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout_tool_usage.hpp"
#include "obs/metrics.hpp"
#include "obs/run_context.hpp"
#include "obs/trace.hpp"
#include "robustness/repair.hpp"

namespace {

using namespace mlvl;

// ---------------------------------------------------------------- tracing

TEST(Trace, DisabledByDefault) {
  ASSERT_EQ(obs::TraceSession::current(), nullptr);
  EXPECT_FALSE(obs::tracing_enabled());
  obs::Span span("ignored");  // must be a no-op, not a crash
}

TEST(Trace, SpansBalanceUnderNesting) {
  obs::TraceSession session;
  session.install();
  {
    obs::Span outer("outer");
    {
      obs::Span inner("inner");
    }
    obs::Span sibling("sibling");
  }
  obs::TraceSession::uninstall();

  const std::vector<obs::TraceEvent> events = session.events();
  ASSERT_EQ(events.size(), 3u);  // completion order: inner, sibling, outer
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "sibling");
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 0u);
  // The outer span covers both children.
  EXPECT_LE(events[2].ts_us, events[0].ts_us);
  EXPECT_GE(events[2].ts_us + events[2].dur_us,
            events[1].ts_us + events[1].dur_us);
  EXPECT_TRUE(session.has_span("outer"));
  EXPECT_FALSE(session.has_span("nonexistent"));
}

TEST(Trace, SpansBalanceOnEarlyReturnAndException) {
  obs::TraceSession session;
  session.install();
  [&]() {
    obs::Span span("early");
    return;  // NOLINT(readability-redundant-control-flow)
  }();
  try {
    obs::Span span("throwing");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  obs::TraceSession::uninstall();
  EXPECT_EQ(session.size(), 2u);
  EXPECT_TRUE(session.has_span("early"));
  EXPECT_TRUE(session.has_span("throwing"));
}

TEST(Trace, UninstallStopsRecording) {
  obs::TraceSession session;
  session.install();
  { obs::Span span("before"); }
  obs::TraceSession::uninstall();
  { obs::Span span("after"); }
  EXPECT_EQ(session.size(), 1u);
}

TEST(Trace, DestructorUninstalls) {
  {
    obs::TraceSession session;
    session.install();
    EXPECT_EQ(obs::TraceSession::current(), &session);
  }
  EXPECT_EQ(obs::TraceSession::current(), nullptr);
}

TEST(Trace, ThreadsGetDistinctIds) {
  obs::TraceSession session;
  session.install();
  { obs::Span span("main-thread"); }
  std::thread worker([] { obs::Span span("worker-thread"); });
  worker.join();
  obs::TraceSession::uninstall();
  const std::vector<obs::TraceEvent> events = session.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(Trace, ChromeTraceIsWellFormedJson) {
  obs::set_run_id("trace-test-run");
  obs::TraceSession session;
  session.install();
  {
    obs::Span outer("phase-a");
    obs::Span inner("phase \"b\"\\with\nescapes");
  }
  obs::TraceSession::uninstall();

  std::ostringstream os;
  session.write_chrome_trace(os);
  std::optional<io::JsonValue> root = io::parse_json(os.str());
  ASSERT_TRUE(root.has_value()) << os.str();
  ASSERT_EQ(root->kind, io::JsonValue::Kind::kObject);

  const io::JsonValue* unit = root->find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ms");
  const io::JsonValue* rid = root->find("runId");
  ASSERT_NE(rid, nullptr);
  EXPECT_EQ(rid->str, "trace-test-run");

  const io::JsonValue* events = root->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, io::JsonValue::Kind::kArray);
  std::vector<const io::JsonValue*> spans;
  std::vector<const io::JsonValue*> meta;
  for (const io::JsonValue& ev : events->items) {
    ASSERT_EQ(ev.kind, io::JsonValue::Kind::kObject);
    ASSERT_NE(ev.find("ph"), nullptr);
    if (ev.find("ph")->str == "M")
      meta.push_back(&ev);
    else
      spans.push_back(&ev);
  }
  ASSERT_EQ(spans.size(), 2u);
  for (const io::JsonValue* ev : spans) {
    EXPECT_EQ(ev->find("ph")->str, "X");
    EXPECT_EQ(ev->find("cat")->str, "mlvl");
    EXPECT_NE(ev->find("name"), nullptr);
    EXPECT_NE(ev->find("ts"), nullptr);
    EXPECT_NE(ev->find("dur"), nullptr);
    EXPECT_NE(ev->find("pid"), nullptr);
    EXPECT_NE(ev->find("tid"), nullptr);
  }
  // The escaped name round-trips through the emitter and the parser.
  EXPECT_EQ(spans[0]->find("name")->str, "phase \"b\"\\with\nescapes");
  // Metadata names the process and the one recording thread.
  bool process_named = false;
  bool thread_named = false;
  for (const io::JsonValue* m : meta) {
    if (m->find("name")->str == "process_name") {
      process_named = true;
      EXPECT_EQ(m->find("args")->find("name")->str, "mlvl");
    }
    if (m->find("name")->str == "thread_name") {
      thread_named = true;
      EXPECT_EQ(m->find("args")->find("name")->str, "main");
    }
  }
  EXPECT_TRUE(process_named);
  EXPECT_TRUE(thread_named);
}

/// The `realize` span carries the work it did: the records it emitted and
/// the edges it routed.
TEST(Obs, RealizeSpanCarriesRecordsAndEdges) {
  Orthogonal2Layer o = layout::layout_hypercube(4);
  obs::TraceSession session;
  session.install();
  const MultilayerLayout ml = realize(o, {.L = 4});
  obs::TraceSession::uninstall();

  const std::vector<obs::TraceEvent> events = session.events();
  const auto it =
      std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& ev) {
        return std::string_view(ev.name) == "realize";
      });
  ASSERT_NE(it, events.end());
  std::map<std::string, std::uint64_t> args;
  for (std::uint32_t i = 0; i < it->arg_count; ++i)
    args[it->args[i].key] = std::stoull(it->args[i].value);
  EXPECT_EQ(args["records"],
            ml.geom.boxes.size() + ml.geom.segs.size() + ml.geom.vias.size());
  EXPECT_EQ(args["edges"], o.graph.num_edges());
}

/// The checker's three sub-phases nest directly under its `check` span and
/// carry their work counters, so a profile can report items/s per phase.
/// The occupancy steps nest the same way under `check.occupancy`.
TEST(Obs, CheckSubPhasesNestUnderCheckWithRecordCounts) {
  Orthogonal2Layer o = layout::layout_hypercube(4);
  MultilayerLayout ml = realize(o, {.L = 4});
  obs::TraceSession session;
  session.install();
  const CheckReport rep =
      Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
  obs::TraceSession::uninstall();
  ASSERT_TRUE(rep.ok) << rep.error;

  const std::vector<obs::TraceEvent> events = session.events();
  auto find = [&](std::string_view name) -> const obs::TraceEvent* {
    for (const obs::TraceEvent& ev : events)
      if (name == ev.name) return &ev;
    return nullptr;
  };
  auto arg = [](const obs::TraceEvent& ev, std::string_view key) {
    for (std::uint32_t i = 0; i < ev.arg_count; ++i)
      if (key == ev.args[i].key) return std::stoull(ev.args[i].value);
    ADD_FAILURE() << ev.name << " lacks arg " << key;
    return 0ull;
  };
  const obs::TraceEvent* check = find("check");
  ASSERT_NE(check, nullptr);
  for (const char* phase :
       {"check.frame", "check.occupancy", "check.connectivity"}) {
    const obs::TraceEvent* ev = find(phase);
    ASSERT_NE(ev, nullptr) << "missing span: " << phase;
    EXPECT_EQ(ev->depth, check->depth + 1) << phase;
    EXPECT_GE(ev->ts_us, check->ts_us) << phase;
    EXPECT_LE(ev->ts_us + ev->dur_us, check->ts_us + check->dur_us) << phase;
    EXPECT_GT(arg(*ev, "records"), 0u) << phase;
  }
  EXPECT_EQ(arg(*find("check.frame"), "records"),
            ml.geom.boxes.size() + ml.geom.segs.size() + ml.geom.vias.size());
  EXPECT_EQ(arg(*find("check.occupancy"), "points"), rep.points);
  EXPECT_EQ(arg(*find("check.connectivity"), "edges"), o.graph.num_edges());

  // The steps run one after another, so their summed time cannot exceed
  // the parent's.
  const obs::TraceEvent* occ = find("check.occupancy");
  std::uint64_t steps_us = 0;
  for (const char* step :
       {"check.occupancy.collect", "check.occupancy.sort",
        "check.occupancy.rows", "check.occupancy.columns",
        "check.occupancy.cross_layer"}) {
    const obs::TraceEvent* ev = find(step);
    ASSERT_NE(ev, nullptr) << "missing span: " << step;
    EXPECT_EQ(ev->depth, occ->depth + 1) << step;
    EXPECT_GE(ev->ts_us, occ->ts_us) << step;
    EXPECT_LE(ev->ts_us + ev->dur_us, occ->ts_us + occ->dur_us) << step;
    (void)arg(*ev, "records");
    steps_us += ev->dur_us;
  }
  EXPECT_LE(steps_us, occ->dur_us);
  EXPECT_EQ(arg(*find("check.occupancy.collect"), "records"),
            arg(*occ, "records"));
  EXPECT_GT(arg(*find("check.occupancy.rows"), "records"), 0u);
  EXPECT_GT(arg(*find("check.occupancy.columns"), "records"), 0u);
}

/// Lint runs each rule under its own `lint.<rule-id>` span, and a repair
/// pass splits into `repair.index` and `repair.route`, all with counters.
TEST(Obs, LintRuleAndRepairSpansCarryCounters) {
  Orthogonal2Layer o = layout::layout_hypercube(4);
  MultilayerLayout ml = realize(o, {.L = 4});
  LayoutGeometry geom = ml.geom;
  std::erase_if(geom.segs, [](const WireSeg& s) { return s.edge == 3; });
  std::erase_if(geom.vias, [](const Via& v) { return v.edge == 3; });
  obs::TraceSession session;
  session.install();
  DiagnosticSink sink;
  analysis::lint_layout(o.graph, geom, analysis::LintConfig{}, sink);
  const auto rep =
      robustness::repair_layout(o.graph, geom, {.rule = ml.required_rule});
  obs::TraceSession::uninstall();
  ASSERT_TRUE(rep.ok);

  const std::vector<obs::TraceEvent> events = session.events();
  auto find = [&](std::string_view name) -> const obs::TraceEvent* {
    for (const obs::TraceEvent& ev : events)
      if (name == ev.name) return &ev;
    return nullptr;
  };
  auto arg = [](const obs::TraceEvent& ev, std::string_view key) {
    for (std::uint32_t i = 0; i < ev.arg_count; ++i)
      if (key == ev.args[i].key) return std::stoull(ev.args[i].value);
    ADD_FAILURE() << ev.name << " lacks arg " << key;
    return 0ull;
  };
  const std::uint64_t records =
      geom.boxes.size() + geom.segs.size() + geom.vias.size();
  for (const analysis::LintRuleInfo& info : analysis::lint_registry()) {
    const obs::TraceEvent* ev = find("lint." + std::string(info.id));
    ASSERT_NE(ev, nullptr) << "missing span for " << info.id;
    EXPECT_EQ(ev->depth, find("lint")->depth + 1) << info.id;
    EXPECT_GT(arg(*ev, "records"), 0u) << info.id;
    (void)arg(*ev, "findings");
  }
  const obs::TraceEvent* index = find("repair.index");
  const obs::TraceEvent* route = find("repair.route");
  ASSERT_NE(index, nullptr);
  ASSERT_NE(route, nullptr);
  EXPECT_GT(arg(*index, "records"), 0u);
  EXPECT_LT(arg(*index, "records"), records);  // edge 3 was unrouted
  EXPECT_EQ(arg(*route, "routes"), 1u);
  // At least one goal-bounded search per route; more when the bound grew.
  EXPECT_GE(arg(*route, "tries"), arg(*route, "routes"));
  EXPECT_GT(arg(*route, "cells_visited"), 0u);
  // hypercube(4) fits in one 64 x 64 tile.
  EXPECT_EQ(arg(*route, "tiles"), 1u);
}

TEST(Trace, SpanArgsAreRecordedBoundedAndTruncated) {
  obs::TraceSession session;
  session.install();
  {
    obs::Span span("engine.job");
    span.arg("spec", "hypercube(n=4)").arg("L", std::uint64_t{6});
    span.arg("long", std::string(100, 'x'));
    for (int i = 0; i < 10; ++i) span.arg("overflow", "y");  // past the cap
  }
  { obs::Span bare("no-args"); }
  obs::TraceSession::uninstall();

  const std::vector<obs::TraceEvent> events = session.events();
  ASSERT_EQ(events.size(), 2u);
  const obs::TraceEvent& ev = events[0];
  ASSERT_EQ(ev.arg_count, obs::kMaxSpanArgs);  // capped, never overrun
  EXPECT_STREQ(ev.args[0].key, "spec");
  EXPECT_STREQ(ev.args[0].value, "hypercube(n=4)");
  EXPECT_STREQ(ev.args[1].key, "L");
  EXPECT_STREQ(ev.args[1].value, "6");
  // Long values are truncated to the slot, NUL-terminated.
  EXPECT_EQ(std::string(ev.args[2].value).size(), obs::kSpanArgValueCap - 1);
  EXPECT_EQ(events[1].arg_count, 0u);

  // Disabled: arg() must be a no-op on an unrecorded span, not a crash.
  obs::Span dead("ignored");
  dead.arg("k", "v");
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, DisabledByDefault) {
  ASSERT_EQ(obs::MetricsRegistry::current(), nullptr);
  EXPECT_FALSE(obs::metrics_enabled());
  obs::counter_add("ignored");  // all four must be no-ops, not crashes
  obs::gauge_set("ignored", 1);
  obs::gauge_max("ignored", 1);
  obs::histogram_record("ignored", 1);
}

TEST(Metrics, CounterIsMonotonic) {
  obs::MetricsRegistry reg;
  reg.install();
  EXPECT_EQ(reg.counter("c"), 0u);  // absent counter reads 0
  obs::counter_add("c");
  obs::counter_add("c", 41);
  obs::MetricsRegistry::uninstall();
  EXPECT_EQ(reg.counter("c"), 42u);
  obs::counter_add("c", 1000);  // uninstalled: no effect
  EXPECT_EQ(reg.counter("c"), 42u);
}

TEST(Metrics, GaugeSetAndMax) {
  obs::MetricsRegistry reg;
  reg.install();
  EXPECT_FALSE(reg.gauge("g").has_value());
  obs::gauge_set("g", 7);
  obs::gauge_set("g", 3);
  obs::gauge_max("peak", 5);
  obs::gauge_max("peak", 2);
  obs::MetricsRegistry::uninstall();
  EXPECT_EQ(reg.gauge("g"), 3);     // set: last value wins
  EXPECT_EQ(reg.gauge("peak"), 5);  // max: peak survives
}

TEST(Metrics, HistogramTracksCountSumMinMax) {
  obs::MetricsRegistry reg;
  reg.install();
  for (double v : {4.0, 16.0, 1.0}) obs::histogram_record("h", v);
  obs::MetricsRegistry::uninstall();
  std::optional<obs::HistogramData> h = reg.histogram("h");
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum, 21.0);
  EXPECT_EQ(h->min, 1.0);
  EXPECT_EQ(h->max, 16.0);
  EXPECT_EQ(h->buckets[0], 1u);  // 1
  EXPECT_EQ(h->buckets[2], 1u);  // 4
  EXPECT_EQ(h->buckets[4], 1u);  // 16
}

TEST(Metrics, JsonIsWellFormedAndRoundTrips) {
  obs::MetricsRegistry reg;
  reg.install();
  obs::counter_add("vias.placed", 104);
  obs::gauge_set("layout.area", 400);
  obs::histogram_record("wire.edge_length", 16);
  obs::MetricsRegistry::uninstall();

  std::ostringstream os;
  reg.write_json(os);
  std::optional<io::JsonValue> root = io::parse_json(os.str());
  ASSERT_TRUE(root.has_value()) << os.str();
  ASSERT_NE(root->find("run_id"), nullptr);  // correlation stamp
  EXPECT_FALSE(root->find("run_id")->str.empty());
  EXPECT_EQ(root->find("counters")->find("vias.placed")->number, 104);
  EXPECT_EQ(root->find("gauges")->find("layout.area")->number, 400);
  const io::JsonValue* h = root->find("histograms")->find("wire.edge_length");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->number, 1);
  EXPECT_EQ(h->find("sum")->number, 16);
}

TEST(Metrics, CsvHasHeaderAndStableRows) {
  obs::set_run_id("csv-test-run");
  obs::MetricsRegistry reg;
  reg.install();
  obs::counter_add("b.counter", 2);
  obs::counter_add("a.counter", 1);
  obs::gauge_set("a.gauge", 1.5);
  obs::MetricsRegistry::uninstall();

  std::ostringstream os;
  reg.write_csv(os);
  std::istringstream is(os.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 5u);
  EXPECT_EQ(lines[0], "kind,name,field,value");
  EXPECT_EQ(lines[1], "meta,run_id,value,csv-test-run");
  EXPECT_EQ(lines[2], "counter,a.counter,value,1");  // sorted by name
  EXPECT_EQ(lines[3], "counter,b.counter,value,2");
  EXPECT_EQ(lines[4], "gauge,a.gauge,value,1.5");
}

// ------------------------------------------------- diagnostics integration

TEST(Metrics, DiagnosticSinkTotalsSurviveCapacity) {
  obs::MetricsRegistry reg;
  reg.install();
  DiagnosticSink sink(2);
  Diagnostic warn;
  warn.code = Code::kLintZeroLengthSeg;
  warn.severity = Severity::kWarning;
  Diagnostic err;
  err.code = Code::kPointCollision;
  err.severity = Severity::kError;
  for (int i = 0; i < 5; ++i) sink.report(warn);
  for (int i = 0; i < 3; ++i) sink.report(err);
  obs::MetricsRegistry::uninstall();

  EXPECT_EQ(sink.size(), 2u);  // bounded storage...
  EXPECT_EQ(sink.total_warnings(), 5u);  // ...but full totals
  EXPECT_EQ(sink.total_errors(), 3u);
  EXPECT_GE(sink.evicted(), 1u);  // errors evicted retained warnings
  EXPECT_EQ(reg.counter("diag.warnings"), 5u);
  EXPECT_EQ(reg.counter("diag.errors"), 3u);
  EXPECT_EQ(reg.counter("diag.evicted"), sink.evicted());

  sink.clear();
  EXPECT_EQ(sink.total_errors(), 0u);
  EXPECT_EQ(sink.total_warnings(), 0u);
  EXPECT_EQ(sink.evicted(), 0u);
}

// ------------------------------------------------------ pipeline coverage

TEST(Obs, PipelineEmitsEveryPhaseSpanAndExactGauges) {
  obs::TraceSession trace;
  obs::MetricsRegistry reg;
  trace.install();
  reg.install();

  Orthogonal2Layer o = layout::layout_hypercube(4);
  MultilayerLayout ml = realize(o, {.L = 4});
  CheckReport res =
      Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
  ASSERT_TRUE(res.ok) << res.error;

  LayoutMetrics m2 = compute_metrics(realize(o, {.L = 2}), o.graph);
  BaselineMetrics folded = fold_thompson(m2, 4);
  EXPECT_GT(folded.area, 0u);

  analysis::LintConfig cfg;
  cfg.via_rule = ml.required_rule;
  DiagnosticSink lint_sink(256);
  analysis::lint_layout(o.graph, ml.geom, cfg, lint_sink);

  // What `-save` and `--doctor` do with the layout's text.
  const std::string path = testing::TempDir() + "/mlvl_obs_trace.mlvl";
  ASSERT_TRUE(io::save_layout(path, o.graph, ml.geom));
  ASSERT_TRUE(io::load_layout(path).has_value());

  LayoutMetrics m = compute_metrics(ml, o.graph);  // last: final gauges
  obs::TraceSession::uninstall();
  obs::MetricsRegistry::uninstall();

  for (const char* phase : {"placement", "interval", "realize", "check",
                            "fold", "lint", "io.save", "io.parse"})
    EXPECT_TRUE(trace.has_span(phase)) << "missing span: " << phase;

  // Both io spans carry the text's size and its record count.
  std::ostringstream text;
  io::write_graph(text, o.graph);
  io::write_geometry(text, ml.geom);
  const std::string records = std::to_string(
      o.graph.num_edges() + ml.geom.boxes.size() + ml.geom.segs.size() +
      ml.geom.vias.size());
  for (const obs::TraceEvent& ev : trace.events()) {
    if (std::string_view(ev.name).substr(0, 3) != "io.") continue;
    ASSERT_EQ(ev.arg_count, 2u) << ev.name;
    EXPECT_STREQ(ev.args[0].key, "bytes");
    EXPECT_EQ(ev.args[0].value, std::to_string(text.str().size())) << ev.name;
    EXPECT_STREQ(ev.args[1].key, "records");
    EXPECT_EQ(ev.args[1].value, records) << ev.name;
  }
  std::remove(path.c_str());

  // The registry's gauges are exactly the checker-verified metric values.
  EXPECT_EQ(reg.gauge("layout.area"), double(m.area));
  EXPECT_EQ(reg.gauge("layout.volume"), double(m.volume));
  EXPECT_EQ(reg.gauge("layout.wiring_area"), double(m.wiring_area));
  EXPECT_EQ(reg.gauge("wire.max_length"), double(m.max_wire_length));
  EXPECT_EQ(reg.gauge("wire.total_length"), double(m.total_wire_length));
  EXPECT_EQ(reg.gauge("vias.count"), double(m.via_count));

  EXPECT_GT(reg.counter("routing.segments"), 0u);
  EXPECT_GT(reg.counter("vias.placed"), 0u);
  EXPECT_GT(reg.counter("tracks.allocated"), 0u);
  ASSERT_TRUE(reg.gauge("grid.peak_occupancy").has_value());
  EXPECT_EQ(*reg.gauge("grid.peak_occupancy"), double(res.points));

  std::optional<obs::HistogramData> h = reg.histogram("wire.edge_length");
  ASSERT_TRUE(h.has_value());
  EXPECT_GE(h->count, o.graph.num_edges());
}

TEST(Obs, CancellationUnwindsWithBalancedSpans) {
  // A pre-tripped token makes the first realize checkpoint throw
  // CancelledError from *inside* the live "realize" span; the RAII spans
  // must still record (balanced trace), and the sink totals must reflect
  // only what was actually reported — cancellation is cooperative, never
  // a torn trace or a phantom diagnostic.
  Orthogonal2Layer o = layout::layout_hypercube(4);
  obs::TraceSession session;
  obs::MetricsRegistry reg;
  session.install();
  reg.install();
  DiagnosticSink sink;
  CancelToken token;
  token.cancel("cancelled by test");
  bool unwound = false;
  try {
    CancelScope scope(&token);
    obs::Span job("engine.job");  // the span an engine worker would hold
    (void)realize(o, {.L = 4});
    ADD_FAILURE() << "realize completed despite a tripped token";
  } catch (const CancelledError& ex) {
    unwound = true;
    EXPECT_STREQ(ex.phase(), "realize");
    EXPECT_STREQ(ex.reason(), "cancelled by test");
  }
  obs::TraceSession::uninstall();
  obs::MetricsRegistry::uninstall();
  ASSERT_TRUE(unwound);
  // Both the span the exception crossed and the enclosing one completed.
  EXPECT_TRUE(session.has_span("realize"));
  EXPECT_TRUE(session.has_span("engine.job"));
  ASSERT_GE(session.size(), 2u);
  // The enclosing span closed last and covers the one it unwound through.
  const std::vector<obs::TraceEvent> events = session.events();
  EXPECT_STREQ(events.back().name, "engine.job");
  EXPECT_EQ(events.back().depth, 0u);
  // Cancellation is not an error report: the sink stays clean, and with the
  // scope gone the thread is back on the one-branch disabled fast path.
  EXPECT_EQ(sink.total_errors(), 0u);
  EXPECT_EQ(sink.total_warnings(), 0u);
  EXPECT_FALSE(cancel_enabled());
  poll_cancellation("realize");  // must be a no-op, not a throw
}

TEST(Obs, DisabledPipelineRecordsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  ASSERT_FALSE(obs::metrics_enabled());
  Orthogonal2Layer o = layout::layout_hypercube(3);
  MultilayerLayout ml = realize(o, {.L = 4});
  LayoutMetrics m = compute_metrics(ml, o.graph);
  EXPECT_GT(m.area, 0u);  // pipeline unaffected by missing sinks
}

// ----------------------------------------------------------- usage block

TEST(UsageText, NamesTheInstalledBinaryAndEveryFlagFamily) {
  const std::string usage = tool::kLayoutToolUsage;
  EXPECT_NE(usage.find("usage: layout_tool"), std::string::npos);
  // The binary was renamed long ago; the stale name must never come back.
  EXPECT_EQ(usage.find("example_layout_tool"), std::string::npos);
  for (const char* needle :
       {"--doctor", "--lint", "--trace", "--metrics", "--quiet", "-q", "-v",
        "-L <layers>", "-svg", "-congestion", "-nocheck", "-repair",
        "-baseline", "-save-baseline", "-disable", "sweep <spec-range>", "-j <N>", "hypercube(n=4..8)",
        "--deadline <ms>", "--sweep-deadline <ms>",
        "bench-diff <baseline.json> <current.json>",
        "--max-regress", "--noise-floor", "--json", "--save-baseline",
        "profile <trace.json>", "--top <N>", "--via-rule <rule>",
        "checker options",
        "exit codes: 0 valid, 1 invalid, 2 parse error, 3 usage"})
    EXPECT_NE(usage.find(needle), std::string::npos)
        << "usage text lost: " << needle;
  // Flags and modes the tool no longer has must not be advertised.
  for (const char* gone :
       {"-nocache", "--retries", "--backoff", "--cache-capacity",
        "--soft-capacity", "soak", "--check-threads",
        "checker workers over line groups", "--metrics-interval",
        "--report <file>", "-transparent", "--journal", "--resume"})
    EXPECT_EQ(usage.find(gone), std::string::npos)
        << "usage text still names: " << gone;
}

// ------------------------------------------------------------ JSON parser

TEST(JsonParser, ParsesScalarsAndStructures) {
  std::optional<io::JsonValue> v =
      io::parse_json(R"({"a": [1, 2.5, -3e2], "b": {"c": true, "d": null},)"
                     R"( "e": "x\n\"y\\z\u0041"})");
  ASSERT_TRUE(v.has_value());
  const io::JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[0].number, 1);
  EXPECT_EQ(a->items[1].number, 2.5);
  EXPECT_EQ(a->items[2].number, -300);
  EXPECT_TRUE(v->find("b")->find("c")->boolean);
  EXPECT_EQ(v->find("b")->find("d")->kind, io::JsonValue::Kind::kNull);
  EXPECT_EQ(v->find("e")->str, "x\n\"y\\zA");
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParser, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"abc", "{\"a\":1}x", "[1 2]",
        "{'a':1}", "nan", "+1", "01x"}) {
    EXPECT_FALSE(io::parse_json(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(JsonParser, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(io::parse_json(deep).has_value());
  std::string ok(40, '[');
  ok += std::string(40, ']');
  EXPECT_TRUE(io::parse_json(ok).has_value());
}

}  // namespace
