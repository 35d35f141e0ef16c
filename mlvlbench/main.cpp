// mlvlbench: the end-to-end benchmark of the mlvl library.
//
//   mlvlbench --workload sweep|doctor|build --seed N --seconds S --trace 0|1
//             --goldens FILE [--trace-out FILE]
//   mlvlbench --write-goldens FILE
//
// Runs one seeded workload through the library's public calls for S seconds,
// checks every output, and prints the metrics as the last stdout line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones from a traced run. README.md next to this file documents
// the workloads, every metric and which layer each should move.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/lint.hpp"
#include "api/registry.hpp"
#include "core/checker.hpp"
#include "core/io.hpp"
#include "core/metrics.hpp"
#include "core/multilayer.hpp"
#include "engine/sweep.hpp"
#include "obs/stats.hpp"
#include "robustness/fault_injector.hpp"
#include "robustness/repair.hpp"
#include "trace.hpp"

namespace mlvlbench {
namespace {

using namespace mlvl;
using robustness::FaultKind;

// Set-up runs up to this many times per process, spread over the run;
// setup_s is the median.
constexpr std::size_t kSetupRepeats = 9;
// The serial workloads (doctor, build) run this many replicas side by side,
// one per core. On a shared host each core's speed drifts on its own by
// 20-40% for seconds at a time; pooling four cores halves the drift a run
// sees. Each replica works on its own inputs, so they share no data.
constexpr std::size_t kReplicas = 4;
// Failure messages printed per run (all failures are counted).
constexpr std::size_t kMaxFailureLines = 8;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// splitmix64: a seeded generator whose sequence is the same under every
/// standard library, so one seed gives the same inputs everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t records(const LayoutGeometry& g) {
  return g.boxes.size() + g.segs.size() + g.vias.size();
}

/// In-memory size of the geometry records.
std::uint64_t record_bytes(const LayoutGeometry& g) {
  return g.boxes.size() * sizeof(NodeBox) + g.segs.size() * sizeof(WireSeg) +
         g.vias.size() * sizeof(Via);
}

bool same_metrics(const LayoutMetrics& a, const LayoutMetrics& b) {
  return a.width == b.width && a.height == b.height && a.layers == b.layers &&
         a.area == b.area && a.volume == b.volume &&
         a.wiring_width == b.wiring_width &&
         a.wiring_height == b.wiring_height &&
         a.wiring_area == b.wiring_area &&
         a.total_wire_length == b.total_wire_length &&
         a.max_wire_length == b.max_wire_length &&
         a.max_wire_edge == b.max_wire_edge && a.via_count == b.via_count &&
         a.edge_length == b.edge_length;
}

std::vector<api::FamilySpec> expand(const std::vector<std::string>& patterns) {
  std::vector<api::FamilySpec> out;
  for (const std::string& p : patterns) {
    DiagnosticSink sink(4);
    auto specs = api::FamilyRegistry::instance().expand(p, &sink);
    if (!specs)
      throw std::runtime_error("bad spec pattern " + p + ": " + sink.summary());
    out.insert(out.end(), specs->begin(), specs->end());
  }
  return out;
}

Orthogonal2Layer build(const api::FamilySpec& spec) {
  DiagnosticSink sink(4);
  auto o = api::FamilyRegistry::instance().build(spec, &sink);
  if (!o)
    throw std::runtime_error("build failed for " +
                             api::format_family_spec(spec) + ": " +
                             sink.summary());
  return std::move(*o);
}

std::string item_name(const api::FamilySpec& spec, std::uint32_t L) {
  return api::format_family_spec(spec) + " L=" + std::to_string(L);
}

/// One pass over a workload's items.
struct PassResult {
  double wall_ms = 0;           ///< the timed region of the pass
  std::vector<double> item_ms;  ///< one sample per item
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< what went wrong, per failed item
};

void fail(PassResult& r, std::string why) {
  ++r.failed;
  r.failures.push_back(std::move(why));
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Registry lookups, input generation and the correctness oracle.
  virtual void setup(std::uint64_t seed) = 0;
  /// One timed pass. With tracing on, every library call is a span.
  virtual PassResult pass(Tracer& tr) = 0;
  /// Input sizes, one line per input, each prefixed with "# ".
  virtual void describe(std::ostream& os) const = 0;
};

// ---- sweep ----------------------------------------------------------------
// A checked batch through BatchLayoutEngine::run on a cold engine: many
// small jobs, a topology-cache hit on every L after the first, and skewed
// job sizes (hypercube(n=10) at L=2 sets the tail). hypercube(n=11),
// ccc(n=10) and folded(n=10) are left out: which of their jobs the four
// workers happened to run at once moved peak_rss_mb by 13% between runs.

constexpr unsigned kSweepWorkers = 4;
const std::vector<std::string> kSweepPatterns = {
    "hypercube(n=6..10)", "kary(k=3..8,n=2)", "kary(k=3..5,n=3)",
    "kary(k=4,n=4)",      "ghc(r=3..6,n=2)",  "ghc(r=3..4,n=3)",
    "ccc(n=3..9)",        "butterfly(k=3..8)", "folded(n=4..9)",
};
constexpr std::uint32_t kSweepLayers[] = {2, 3, 4, 8, 16, 32, 64};

class SweepWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    for (const api::FamilySpec& spec : expand(kSweepPatterns))
      for (std::uint32_t L : kSweepLayers)
        jobs_.push_back({spec, {.L = L}});
    // The seed fixes the submission order (Fisher-Yates).
    Rng rng(seed);
    for (std::size_t i = jobs_.size(); i > 1; --i)
      std::swap(jobs_[i - 1], jobs_[rng.below(i)]);
    // Oracle: a serial replay of build -> realize -> compute_metrics. The
    // engine checks every job itself; this pins down what it must report.
    std::map<std::string, Orthogonal2Layer> built;
    for (const engine::SweepJob& job : jobs_) {
      const std::string key = api::format_family_spec(job.spec);
      auto it = built.find(key);
      if (it == built.end()) it = built.emplace(key, build(job.spec)).first;
      MultilayerLayout ml = realize(it->second, job.options);
      expected_.push_back(compute_metrics(ml, it->second.graph));
      records_.push_back(records(ml.geom));
      bytes_ += record_bytes(ml.geom);
    }
  }

  PassResult pass(Tracer& tr) override {
    PassResult r;
    engine::SweepReport rep;
    const Clock::time_point t0 = Clock::now();
    tr.span("pass", -1, [&] {
      tr.span("engine", -1, [&] {
        engine::BatchLayoutEngine eng({.threads = kSweepWorkers, .check = true});
        rep = eng.run(jobs_);
      });
    });
    r.wall_ms = ms_since(t0);

    std::vector<bool> bad(jobs_.size(), false);
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const engine::JobResult& j = rep.jobs[i];
      r.item_ms.push_back(j.run_ms);
      if (!j.ok) {
        bad[i] = true;
        r.failures.push_back(item_name(jobs_[i].spec, jobs_[i].options.L) +
                             ": " + j.error);
      } else if (!same_metrics(j.metrics, expected_[i])) {
        bad[i] = true;
        r.failures.push_back(item_name(jobs_[i].spec, jobs_[i].options.L) +
                             ": engine metrics differ from the serial replay");
      }
    }
    if (tr.on()) {
      std::vector<double> waits;
      for (const engine::JobResult& j : rep.jobs) waits.push_back(j.queue_wait_ms);
      tr.count("engine.busy_ms", rep.busy_ms);
      tr.count("engine.utilization", rep.utilization());
      tr.count("engine.queue_wait_ms_p50", obs::summarize(waits).median);
      tr.count("engine.cache_hits", static_cast<double>(rep.cache_hits));
      tr.count("engine.cache_misses", static_cast<double>(rep.cache_misses));
      replay(tr, rep, bad, r);
    }
    r.attempted = jobs_.size();
    r.failed = static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), true));
    return r;
  }

  void describe(std::ostream& os) const override {
    std::map<std::string, std::uint64_t> per_spec;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      per_spec[api::format_family_spec(jobs_[i].spec)] += records_[i];
      total += records_[i];
    }
    os << "# input: " << jobs_.size() << " jobs (" << per_spec.size()
       << " specs x " << std::size(kSweepLayers) << " layer counts), "
       << total << " records in " << bytes_ << " bytes of geometry per pass\n";
    for (const auto& [spec, recs] : per_spec)
      os << "# input: " << spec << " records summed over L: " << recs << "\n";
  }

 private:
  /// The engine runs its layers on worker threads, out of the benchmark's
  /// reach; the traced run replays the same job list serially through the
  /// public calls, building each spec once as the engine's cache does.
  void replay(Tracer& tr, const engine::SweepReport& rep,
              std::vector<bool>& bad, PassResult& r) {
    tr.span("replay", -1, [&] {
      std::map<std::string, Orthogonal2Layer> built;
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const engine::SweepJob& job = jobs_[i];
        const auto item = static_cast<std::int64_t>(i);
        const std::string key = api::format_family_spec(job.spec);
        auto it = built.find(key);
        if (it == built.end()) {
          Orthogonal2Layer o = tr.span("build", item, [&] { return build(job.spec); });
          tr.count("build.edges", o.graph.num_edges());
          it = built.emplace(key, std::move(o)).first;
        }
        const Orthogonal2Layer& o = it->second;
        MultilayerLayout ml =
            tr.span("realize", item, [&] { return realize(o, job.options); });
        tr.count("realize.records", static_cast<double>(records(ml.geom)));
        CheckReport cr = tr.span("check", item, [&] {
          return Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
        });
        tr.count("check.records", static_cast<double>(records(ml.geom)));
        tr.count("check.points", static_cast<double>(cr.points));
        LayoutMetrics m =
            tr.span("metrics", item, [&] { return compute_metrics(ml, o.graph); });
        if (!bad[i] && (!cr.ok || !same_metrics(m, rep.jobs[i].metrics))) {
          bad[i] = true;
          r.failures.push_back(item_name(job.spec, job.options.L) +
                               ": serial replay disagrees with the engine");
        }
      }
    });
  }

  std::vector<engine::SweepJob> jobs_;
  std::vector<LayoutMetrics> expected_;
  std::vector<std::uint64_t> records_;
  std::uint64_t bytes_ = 0;
};

// ---- doctor ---------------------------------------------------------------
// Copies of valid layouts, each with one seeded geometry fault, serialized
// to mlvl text. Each item is parsed, checked collect-all, linted, repaired
// and checked again in full: the one path that writes geometry.

struct DoctorSpec {
  const char* spec;
  std::uint32_t L;
  /// Faulted copies per kind: every kind in `kinds` lands this many times.
  int rounds;
  std::vector<FaultKind> kinds;
};

/// Every geometry fault a single-edge re-route can repair. Frame faults
/// (box overlap, duplicate or out-of-bounds box, shrunken grid) are
/// unrepairable by design and text faults never reach the checker, so
/// neither belongs in this workload.
const std::vector<FaultKind> kRepairableFaults = {
    FaultKind::kShiftSegmentOffTrack, FaultKind::kSwapSegmentLayer,
    FaultKind::kDiagonalSegment,      FaultKind::kDropVia,
    FaultKind::kTruncateViaSpan,      FaultKind::kInvertViaSpan,
    FaultKind::kUnrouteEdge,
};
/// The same at L = 2, where two kinds have no site: a run moved to the
/// only other layer stays attached, and no via spans the three layers a
/// truncation needs. Proving that scans the whole layout.
const std::vector<FaultKind> kRepairableFaultsL2 = {
    FaultKind::kShiftSegmentOffTrack, FaultKind::kDiagonalSegment,
    FaultKind::kDropVia, FaultKind::kInvertViaSpan, FaultKind::kUnrouteEdge,
};

// Every layout gets the same count of each kind, and the seed picks only
// the sites, so the mix of kinds is the same under every seed. Repair time
// still depends on where a fault lands (a short or a long re-route, one
// repair pass or two), and the pass time settles only as a sum of many
// items of similar weight, so the layouts are small and the items many.
// Small layouts also keep each item's working set in a core's own cache:
// on a shared host, work that streams megabytes through the shared cache
// and memory ran up to twice as slow for seconds at a time.
const std::vector<DoctorSpec> kDoctorSpecs = {
    {"hypercube(n=7)", 2, 7, kRepairableFaultsL2},
    {"hypercube(n=7)", 8, 7, kRepairableFaults},
    {"ghc(r=4,n=3)", 2, 7, kRepairableFaultsL2},
    {"ghc(r=4,n=3)", 8, 7, kRepairableFaults},
    // kary(k=6,n=3) at L=8 is left out: a third of its faults there need a
    // second repair pass (30-38 ms against 11-17 ms), so how many of them
    // the seed drew moved item_ms_p95 by up to 40% from seed to seed.
    {"kary(k=6,n=3)", 2, 7, kRepairableFaultsL2},
    // Four kinds run only on the smallest instance, once each.
    // kStealTerminal rips every edge through the stolen box (22 edges and
    // 31 s on hypercube(n=11)). kDemoteToWrongLayer is checker-invisible, so
    // repair has nothing to do, and the two kinds that implicate two edges
    // re-route both. On a larger layout each would set its item apart.
    {"hypercube(n=6)", 8, 1,
     {FaultKind::kStealTerminal, FaultKind::kDemoteToWrongLayer,
      FaultKind::kRelabelSegment, FaultKind::kDuplicateViaForeign}},
};

struct DoctorItem {
  std::string name;
  std::string text;  ///< the faulted layout as mlvl text
  FaultKind kind{};
  Code expected{};
  std::uint64_t records = 0;
};

class DoctorWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    for (const DoctorSpec& ds : kDoctorSpecs) {
      const api::FamilySpec spec = expand({ds.spec}).front();
      const Orthogonal2Layer o = build(spec);
      const MultilayerLayout ml = realize(o, {.L = ds.L});
      for (int v = 0; v < ds.rounds; ++v)
        for (const FaultKind kind : ds.kinds) {
          LayoutGeometry geom = ml.geom;
          DoctorItem item;
          item.name = item_name(spec, ds.L) + " #" + std::to_string(v + 1);
          // The seed picks the site; a site the kind cannot use is redrawn,
          // so the same seed always lands the same fault.
          std::optional<robustness::InjectedFault> fault;
          for (int attempt = 0; attempt < 64 && !fault; ++attempt)
            fault = robustness::inject(kind, o.graph, geom, rng.next());
          if (!fault)
            throw std::runtime_error("no " + std::string(robustness::fault_name(kind)) +
                                     " site on " + item.name);
          item.kind = fault->kind;
          item.expected = fault->expected;
          item.records = records(geom);
          std::ostringstream os;
          io::write_graph(os, o.graph);
          io::write_geometry(os, geom);
          item.text = std::move(os).str();
          items_.push_back(std::move(item));
        }
    }
  }

  PassResult pass(Tracer& tr) override {
    PassResult r;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::string why;
      const Clock::time_point t0 = Clock::now();
      const bool ok = tr.span("item", static_cast<std::int64_t>(i),
                              [&] { return run_item(tr, i, why); });
      const double ms = ms_since(t0);
      r.wall_ms += ms;
      r.item_ms.push_back(ms);
      ++r.attempted;
      if (!ok) fail(r, items_[i].name + " (" +
                           robustness::fault_name(items_[i].kind) + "): " + why);
    }
    return r;
  }

  void describe(std::ostream& os) const override {
    std::uint64_t bytes = 0;
    for (const DoctorItem& it : items_) bytes += it.text.size();
    os << "# input: " << items_.size() << " faulted layouts, " << bytes
       << " bytes of mlvl text per pass\n";
    for (const DoctorItem& it : items_)
      os << "# input: " << it.name << " fault=" << robustness::fault_name(it.kind)
         << " expects=" << code_name(it.expected) << " records=" << it.records
         << " bytes=" << it.text.size() << "\n";
  }

 private:
  bool run_item(Tracer& tr, std::size_t i, std::string& why) {
    const DoctorItem& item = items_[i];
    const auto id = static_cast<std::int64_t>(i);
    // Every doctor layout has an even L, built for blocking vias; the mlvl
    // text does not record the rule.
    constexpr ViaRule kRule = ViaRule::kBlocking;

    DiagnosticSink parse_sink(16);
    std::optional<io::LoadedLayout> loaded = tr.span("io.parse", id, [&] {
      std::istringstream is(item.text);
      return io::parse_layout(is, &parse_sink);
    });
    tr.count("io.parse_bytes", static_cast<double>(item.text.size()));
    if (!loaded) {
      why = "parse failed: " + parse_sink.summary();
      return false;
    }
    const Graph& g = loaded->graph;
    LayoutGeometry& geom = loaded->geom;

    DiagnosticSink check_sink(4096);
    const CheckReport before = tr.span("check", id, [&] {
      return Checker(g, geom, {.via_rule = kRule}).check(check_sink);
    });
    tr.count("check.records", static_cast<double>(records(geom)));
    tr.count("check.points", static_cast<double>(before.points));

    analysis::LintConfig cfg;
    cfg.via_rule = kRule;
    DiagnosticSink lint_sink(1024);
    const analysis::LintStats lint = tr.span(
        "lint", id, [&] { return analysis::lint_layout(g, geom, cfg, lint_sink); });
    tr.count("lint.findings", static_cast<double>(lint.reported));

    const bool detected = robustness::is_lint_fault(item.kind)
                              ? before.ok && lint_sink.has(item.expected)
                              : !before.ok && check_sink.has(item.expected);
    if (!detected) {
      why = std::string("declared code ") + code_name(item.expected) +
            " not reported; check: " + check_sink.summary() +
            "; lint: " + lint_sink.summary();
      return false;
    }

    const robustness::RepairReport rep = tr.span("repair", id, [&] {
      return robustness::repair_layout(g, geom, {.rule = kRule});
    });
    tr.count("repair.passes", rep.passes);
    tr.count("repair.ripped", static_cast<double>(rep.ripped.size()));
    tr.count("repair.rerouted", static_cast<double>(rep.rerouted.size()));
    tr.count("repair.failed", static_cast<double>(rep.failed.size()));

    const CheckReport after = tr.span(
        "check", id, [&] { return Checker(g, geom, {.via_rule = kRule}).check(); });
    tr.count("check.records", static_cast<double>(records(geom)));
    tr.count("check.points", static_cast<double>(after.points));
    if (!rep.ok || !after.ok) {
      why = "repair left the layout invalid: " +
            (after.ok ? std::string("repair report not ok") : after.error);
      return false;
    }
    return true;
  }

  std::vector<DoctorItem> items_;
};

// ---- build ----------------------------------------------------------------
// An unchecked ladder of large layouts, as emitted with -nocheck: build ->
// realize -> compute_metrics -> write_geometry to memory.

// Layouts whose records and text fit in a core's own cache, for the reason
// given at kDoctorSpecs; hypercube(n=12..14) streamed 4-22 MB of text per
// item and its pass time moved by up to 50% with the host's load.
const std::vector<std::string> kBuildPatterns = {
    "hypercube(n=8..10)", "kary(k=8,n=3)", "ghc(r=4,n=4)",
    "ccc(n=8)",           "butterfly(k=7)", "folded(n=9)"};
constexpr std::uint32_t kBuildLayers[] = {2, 8, 64};

/// What a checker-verified generation run recorded for one build item.
struct Golden {
  std::uint64_t area = 0, wiring_area = 0, volume = 0, max_wire = 0, vias = 0;
  std::uint64_t bytes = 0;  ///< size of the written geometry text
  std::uint64_t fnv = 0;    ///< FNV-1a of the written geometry text
  bool operator==(const Golden&) const = default;
};

Golden golden_of(const LayoutMetrics& m, std::string_view text) {
  return {m.area, m.wiring_area, m.volume, m.max_wire_length, m.via_count,
          text.size(), fnv1a(text)};
}

void write_golden_line(std::ostream& os, const std::string& name, const Golden& g) {
  os << name << " " << g.area << " " << g.wiring_area << " " << g.volume << " "
     << g.max_wire << " " << g.vias << " " << g.bytes << " " << g.fnv << "\n";
}

/// Golden file: '#' comments, then "<spec> L=<L> area wiring_area volume
/// max_wire vias bytes fnv" per item.
std::map<std::string, Golden> load_goldens(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read goldens file " + path);
  std::map<std::string, Golden> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string spec, layers;
    Golden g;
    if (!(ls >> spec >> layers >> g.area >> g.wiring_area >> g.volume >>
          g.max_wire >> g.vias >> g.bytes >> g.fnv))
      throw std::runtime_error("malformed goldens line: " + line);
    out[spec + " " + layers] = g;
  }
  return out;
}

struct BuildItem {
  api::FamilySpec spec;
  std::uint32_t L = 2;
  std::string name;
  Golden golden;
};

std::vector<BuildItem> build_items() {
  std::vector<BuildItem> items;
  for (const api::FamilySpec& spec : expand(kBuildPatterns))
    for (std::uint32_t L : kBuildLayers)
      items.push_back({spec, L, item_name(spec, L), {}});
  return items;
}

class BuildWorkload final : public Workload {
 public:
  explicit BuildWorkload(std::string goldens_path)
      : goldens_path_(std::move(goldens_path)) {}

  void setup(std::uint64_t /*seed: the ladder is fixed*/) override {
    const std::map<std::string, Golden> goldens = load_goldens(goldens_path_);
    items_ = build_items();
    for (BuildItem& it : items_) {
      auto g = goldens.find(it.name);
      if (g == goldens.end())
        throw std::runtime_error("no golden for " + it.name + " in " + goldens_path_);
      it.golden = g->second;
    }
    // An untimed run of the largest item grows the heap to its peak, so the
    // first timed pass pays no first-touch page faults the later ones skip.
    const auto largest = std::max_element(
        items_.begin(), items_.end(), [](const BuildItem& a, const BuildItem& b) {
          return a.golden.bytes < b.golden.bytes;
        });
    Tracer off(false);
    PassResult warm;
    run_item(off, static_cast<std::size_t>(largest - items_.begin()), warm);
    if (warm.failed != 0) throw std::runtime_error(warm.failures.front());
  }

  PassResult pass(Tracer& tr) override {
    PassResult r;
    for (std::size_t i = 0; i < items_.size(); ++i) run_item(tr, i, r);
    return r;
  }

  void describe(std::ostream& os) const override {
    std::uint64_t bytes = 0;
    for (const BuildItem& it : items_) bytes += it.golden.bytes;
    os << "# input: " << items_.size() << " layouts, " << bytes
       << " bytes of geometry text written per pass\n";
    for (const BuildItem& it : items_)
      os << "# input: " << it.name << " bytes=" << it.golden.bytes
         << " vias=" << it.golden.vias << "\n";
  }

 private:
  void run_item(Tracer& tr, std::size_t i, PassResult& r) {
    const BuildItem& it = items_[i];
    const auto id = static_cast<std::int64_t>(i);
    // The text goes into one buffer reused by every item, as a writer to
    // a file would reuse its stream buffer.
    text_.clear();
    std::ostringstream os(std::move(text_));
    LayoutMetrics m;
    const Clock::time_point t0 = Clock::now();
    tr.span("item", id, [&] {
      const Orthogonal2Layer o = tr.span("build", id, [&] { return build(it.spec); });
      const MultilayerLayout ml =
          tr.span("realize", id, [&] { return realize(o, {.L = it.L}); });
      m = tr.span("metrics", id, [&] { return compute_metrics(ml, o.graph); });
      tr.span("io.save", id, [&] { io::write_geometry(os, ml.geom); });
      tr.count("build.edges", o.graph.num_edges());
      tr.count("realize.records", static_cast<double>(records(ml.geom)));
    });
    const double ms = ms_since(t0);
    r.wall_ms += ms;
    r.item_ms.push_back(ms);
    ++r.attempted;
    text_ = std::move(os).str();
    const Golden got = golden_of(m, text_);
    tr.count("io.save_bytes", static_cast<double>(got.bytes));
    if (!(got == it.golden)) {
      std::ostringstream line;
      write_golden_line(line, it.name, got);
      fail(r, it.name + ": differs from golden, got " + line.str());
    }
  }

  std::string goldens_path_;
  std::vector<BuildItem> items_;
  std::string text_;
};

/// Regenerate the build goldens: every layout is checker-verified first.
int write_goldens(const std::string& path) {
  std::ostringstream out;
  out << "# mlvlbench build goldens, from a checker-verified generation run\n"
      << "# (mlvlbench --write-goldens). Fields: spec L area wiring_area "
         "volume max_wire vias bytes fnv1a\n";
  for (const BuildItem& it : build_items()) {
    const Orthogonal2Layer o = build(it.spec);
    const MultilayerLayout ml = realize(o, {.L = it.L});
    const CheckReport cr =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule, .threads = 0})
            .check();
    if (!cr.ok) {
      std::cerr << it.name << ": checker rejects the layout: " << cr.error << "\n";
      return 1;
    }
    std::ostringstream geom;
    io::write_geometry(geom, ml.geom);
    write_golden_line(out, it.name, golden_of(compute_metrics(ml, o.graph), geom.view()));
    std::cerr << "verified " << it.name << "\n";
  }
  std::ofstream os(path);
  os << out.str();
  if (!os.flush()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  return 0;
}

// ---- measurement and output -------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) { return obs::summarize(std::move(v)).median; }

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << v << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string goldens;
  std::string trace_out;
  std::string write_goldens;
};

int usage() {
  std::cerr << "usage: mlvlbench --workload sweep|doctor|build --seed N "
               "--seconds S --trace 0|1 --goldens FILE [--trace-out FILE]\n"
               "       mlvlbench --write-goldens FILE\n";
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return std::nullopt;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (k == "--goldens") {
      a.goldens = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--write-goldens") {
      a.write_goldens = v;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0) return std::nullopt;
  if (a.write_goldens.empty() && a.workload.empty()) return std::nullopt;
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "sweep") return std::make_unique<SweepWorkload>();
  if (a.workload == "doctor") return std::make_unique<DoctorWorkload>();
  if (a.workload == "build") return std::make_unique<BuildWorkload>(a.goldens);
  return nullptr;
}

/// sweep is parallel inside the engine; the others are serial.
std::size_t replicas(const std::string& workload) {
  return workload == "sweep" ? 1 : kReplicas;
}

void print_env(const Args& a) {
  const obs::BuildEnv env = obs::capture_build_env();
  std::cout << "# workload=" << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << (a.trace ? 1 : 0) << "\n"
            << "# env: cores_used="
            << (a.workload == "sweep" ? kSweepWorkers : replicas(a.workload))
            << " hardware_cores=" << env.cores << " compiler=" << env.compiler
            << " build_type=" << env.build_type << "\n";
  if (env.build_type != "Release") {
    const std::string warn = "!!! NON-RELEASE BUILD (" + env.build_type +
                             "): timings are not comparable !!!";
    std::cout << "# " << warn << "\n";
    std::cerr << warn << "\n";
  }
}

/// Run passes until `budget_s` has elapsed since `start` (at least one).
/// `between` runs after each pass, outside the pass's timed region.
template <class F>
void run_passes(Workload& w, Tracer& tr, Clock::time_point start, double budget_s,
                std::vector<PassResult>& out, F&& between) {
  do {
    out.push_back(w.pass(tr));
    between();
  } while (ms_since(start) < budget_s * 1000.0);
}

/// One copy of a workload, run on a thread of its own, and its passes.
struct Replica {
  std::unique_ptr<Workload> w;
  Tracer tr{false};
  /// The untimed first pass, which grows the heap and warms the caches;
  /// it took a third longer than the passes after it.
  PassResult warm;
  std::vector<PassResult> plain, traced;
};

int run(const Args& a) {
  if (!make_workload(a)) return usage();
  print_env(a);

  std::vector<Replica> reps(replicas(a.workload));
  std::mutex setup_mu;
  std::vector<double> setup_s;  // guarded by setup_mu
  auto timed_setup = [&](Workload& x) {
    const Clock::time_point t0 = Clock::now();
    x.setup(a.seed);
    const double s = ms_since(t0) / 1000.0;
    const std::lock_guard lock(setup_mu);
    setup_s.push_back(s);
  };

  // Each replica sets itself up on its own thread, beside the others. The
  // host's speed drifts for seconds at a time, so the remaining set-ups are
  // spread over the untraced part of the run, each on a fresh workload that
  // is then dropped: setup_s samples the same stretch of time the passes do.
  // End-to-end numbers come from untraced passes only. A traced run spends
  // half its time untraced so the tracing overhead can be stated.
  const Clock::time_point start = Clock::now();
  const double plain_s = a.trace ? a.seconds / 2 : a.seconds;
  const std::size_t extra = kSetupRepeats - std::min(kSetupRepeats, reps.size());
  std::size_t extra_started = 0;  // guarded by setup_mu
  auto spread_setups = [&] {
    {
      const std::lock_guard lock(setup_mu);
      const double due = plain_s * 1000.0 * static_cast<double>(extra_started + 1) /
                         static_cast<double>(extra + 1);
      if (extra_started >= extra || ms_since(start) < due) return;
      ++extra_started;
    }
    timed_setup(*make_workload(a));
  };
  std::vector<std::exception_ptr> errors(reps.size());
  auto body = [&](std::size_t i) {
    Replica& r = reps[i];
    try {
      r.w = make_workload(a);
      timed_setup(*r.w);
      Tracer off(false);
      r.warm = r.w->pass(off);
      run_passes(*r.w, off, start, plain_s, r.plain, spread_setups);
      if (a.trace) {
        r.tr = Tracer(true);
        run_passes(*r.w, r.tr, start, a.seconds, r.traced, [] {});
      }
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (reps.size() == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < reps.size(); ++i) threads.emplace_back(body, i);
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  reps.front().w->describe(std::cout);

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (const Replica& r : reps) {
    std::vector<const PassResult*> all = {&r.warm};
    for (const auto* set : {&r.plain, &r.traced})
      for (const PassResult& p : *set) all.push_back(&p);
    for (const PassResult* p : all) {
      attempted += p->attempted;
      failed += p->failed;
      failures.insert(failures.end(), p->failures.begin(), p->failures.end());
    }
  }
  for (std::size_t i = 0; i < failures.size() && i < kMaxFailureLines; ++i)
    std::cout << "# FAIL " << failures[i] << "\n";
  if (failures.size() > kMaxFailureLines)
    std::cout << "# FAIL ... " << failures.size() - kMaxFailureLines << " more\n";

  // Timings are the fastest of many repeats. On a shared host other
  // tenants slow a core by 20-50% for seconds at a time, and how much of a
  // run falls in such stretches varies from run to run. Over five 30 s runs
  // of the build workload, the spread between runs (IQR over median) was
  // 0.13 for the median pass, 0.08-0.14 for the mean pass, 0.03-0.21 for
  // the fastest pass, and 0.05 for the sum of each item's fastest time.
  // Interference only adds time, so the fastest repeat is the closest to
  // what the code itself costs.
  std::vector<double> best;  // per item, over every pass of every replica
  std::vector<double> walls;
  const PassResult* fastest = nullptr;
  double wall_total_ms = 0;
  for (const Replica& r : reps)
    for (const PassResult& p : r.plain) {
      if (best.empty()) best = p.item_ms;
      for (std::size_t i = 0; i < best.size(); ++i)
        best[i] = std::min(best[i], p.item_ms[i]);
      if (!fastest || p.wall_ms < fastest->wall_ms) fastest = &p;
      walls.push_back(p.wall_ms);
      wall_total_ms += p.wall_ms;
    }
  const obs::SampleStats item_stats = obs::summarize(best);
  const double passes = static_cast<double>(walls.size());
  // A serial pass is the sum of its items, so its quietest form is the sum
  // of each item's fastest time; a whole pass rarely falls in one quiet
  // stretch. The engine runs a sweep's items side by side, so there it is
  // the fastest pass.
  double wall_ms = fastest->wall_ms;
  if (reps.size() > 1) wall_ms = std::accumulate(best.begin(), best.end(), 0.0);

  std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"wall_s", wall_ms / 1000.0, "s"},
      {"items_per_s", static_cast<double>(best.size()) / (wall_ms / 1000.0), "1/s"},
      {"item_ms_p50", item_stats.median, "ms"},
      {"item_ms_p95", item_stats.p95, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::cout << "# replicas=" << reps.size() << " passes=" << passes
            << " item_samples=" << best.size() << " (each the fastest of " << passes
            << ") setup_runs=" << setup_s.size()
            << "\n# pass wall ms: fastest=" << fastest->wall_ms
            << " median=" << median(walls) << " mean=" << wall_total_ms / passes
            << "\n";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::cout << "# replica " << i << " pass_wall_ms=";
    for (const PassResult& p : reps[i].plain) std::cout << " " << p.wall_ms;
    std::cout << "\n";
  }
  for (const Metric& m : e2e)
    std::cout << "# metric " << m.name << " = " << m.value << " " << m.unit << "\n";
  std::cout << "# metric error_rate = "
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << " (failed/attempted)\n";

  const bool correct = failed == 0;
  if (!a.trace) {
    print_json(correct, attempted, failed, e2e);
    return correct ? 0 : 1;
  }

  // Per-layer numbers: self time and work per traced pass, over every
  // replica's traced passes.
  std::map<std::string, double> self, counts;
  double n = 0, root_ms = 0, root_self_ms = 0, traced_total_ms = 0;
  for (const Replica& r : reps) {
    for (const auto& [k, v] : r.tr.self_ms()) self[k] += v;
    for (const auto& [k, v] : r.tr.counts()) counts[k] += v;
    root_ms += r.tr.root_ms();
    root_self_ms += r.tr.root_self_ms();
    n += static_cast<double>(r.traced.size());
    for (const PassResult& p : r.traced) traced_total_ms += p.wall_ms;
  }
  auto ms_of = [&](const char* layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second / n;
  };
  auto count_of = [&](const char* key) {
    auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second / n;
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };

  std::vector<Metric> layers = {
      {"build.ms", ms_of("build"), "ms"},
      {"build.edges", count_of("build.edges"), "count"},
      {"realize.ms", ms_of("realize"), "ms"},
      {"realize.records", count_of("realize.records"), "count"},
      {"metrics.ms", ms_of("metrics"), "ms"},
      {"io.save_ms", ms_of("io.save"), "ms"},
      {"io.save_bytes", count_of("io.save_bytes"), "bytes"},
      {"io.parse_ms", ms_of("io.parse"), "ms"},
      {"io.parse_bytes", count_of("io.parse_bytes"), "bytes"},
      {"check.ms", ms_of("check"), "ms"},
      {"check.records", count_of("check.records"), "count"},
      {"check.points", count_of("check.points"), "count"},
      {"check.points_per_record",
       ratio(count_of("check.points"), count_of("check.records")), "ratio"},
      {"lint.ms", ms_of("lint"), "ms"},
      {"lint.findings", count_of("lint.findings"), "count"},
      {"repair.ms", ms_of("repair"), "ms"},
      {"repair.passes", count_of("repair.passes"), "count"},
      {"repair.ripped", count_of("repair.ripped"), "count"},
      {"repair.rerouted", count_of("repair.rerouted"), "count"},
      {"repair.reroute_ratio",
       ratio(count_of("repair.rerouted"), count_of("repair.ripped")), "ratio"},
      {"repair.failed", count_of("repair.failed"), "count"},
      {"engine.ms", ms_of("engine"), "ms"},
      {"engine.busy_ms", count_of("engine.busy_ms"), "ms"},
      {"engine.utilization", count_of("engine.utilization"), "ratio"},
      {"engine.queue_wait_ms_p50", count_of("engine.queue_wait_ms_p50"), "ms"},
      {"engine.cache_hits", count_of("engine.cache_hits"), "count"},
      {"engine.cache_misses", count_of("engine.cache_misses"), "count"},
      {"trace.wall_ms", root_ms / n, "ms"},
      {"trace.unattributed_ms", root_self_ms / n, "ms"},
      {"trace.overhead_ms", traced_total_ms / n - wall_total_ms / passes, "ms"},
  };
  std::cout << "# traced passes=" << n
            << " (per-layer values are per traced pass; 0 ms = layer not run "
               "on this workload)\n";
  for (const Metric& m : layers)
    std::cout << "# layer " << m.name << " = " << m.value << " " << m.unit << "\n";
  // The spans of the first replica; the others ran the same items.
  if (!a.trace_out.empty() && !reps.front().tr.write_json(a.trace_out))
    std::cerr << "cannot write trace " << a.trace_out << "\n";
  print_json(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mlvlbench

int main(int argc, char** argv) {
  const std::optional<mlvlbench::Args> a = mlvlbench::parse_args(argc, argv);
  if (!a) return mlvlbench::usage();
  try {
    if (!a->write_goldens.empty()) return mlvlbench::write_goldens(a->write_goldens);
    return mlvlbench::run(*a);
  } catch (const std::exception& ex) {
    std::cerr << "mlvlbench: " << ex.what() << "\n";
    return 1;
  }
}
