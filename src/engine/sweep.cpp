#include "engine/sweep.hpp"

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlvl::engine {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Build-once table for one batch: one slot per distinct canonical spec,
/// numbered by the serial canonicalize loop. One mutex and one condition
/// variable cover every slot; neither is held while a layout is built, so
/// the lock stays a leaf (DESIGN.md §7.10).
class BuildTable {
 public:
  explicit BuildTable(std::size_t slots) : slots_(slots) {}

  /// The layout of slot `s`, built from `spec` by the first job that needs
  /// it; `*hit` says whether another job built it. A failed build fails
  /// every job of its spec with the same error. A build cancelled by its
  /// job's budget rethrows CancelledError and empties the slot, so a job
  /// waiting on it wakes and builds under its own budget. A done slot is
  /// never written again, so the returned layout may be read unlocked
  /// until the table dies.
  const Orthogonal2Layer& get(std::size_t s, const api::FamilySpec& spec,
                              bool* hit) MLVL_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      while (slots_[s].state == State::kBuilding) cv_.wait(mu_);
      Slot& slot = slots_[s];
      if (slot.state == State::kDone) {
        *hit = true;
        if (!slot.layout) throw std::runtime_error(slot.error);
        return *slot.layout;
      }
      slot.state = State::kBuilding;
    }
    *hit = false;
    std::optional<Orthogonal2Layer> layout;
    std::string error;
    try {
      DiagnosticSink sink(4);
      layout = api::FamilyRegistry::instance().build(spec, &sink);
      if (!layout) {
        error = sink.first() != nullptr ? sink.first()->to_string()
                                        : "family build failed";
      }
    } catch (const CancelledError&) {
      {
        MutexLock lock(&mu_);
        slots_[s].state = State::kEmpty;
      }
      cv_.notify_all();
      throw;
    } catch (const std::exception& ex) {
      error = ex.what();
    }
    const Orthogonal2Layer* built = nullptr;
    {
      MutexLock lock(&mu_);
      Slot& slot = slots_[s];
      slot.state = State::kDone;
      slot.layout = std::move(layout);
      slot.error = error;
      if (slot.layout) built = &*slot.layout;
    }
    cv_.notify_all();
    if (built == nullptr) throw std::runtime_error(error);
    return *built;
  }

 private:
  enum class State : std::uint8_t { kEmpty, kBuilding, kDone };
  struct Slot {
    State state = State::kEmpty;
    std::optional<Orthogonal2Layer> layout;  ///< empty: the build failed
    std::string error;
  };
  Mutex mu_;
  CondVar cv_;
  std::vector<Slot> slots_ MLVL_GUARDED_BY(mu_);
};

}  // namespace

const char* verdict_name(JobVerdict v) {
  switch (v) {
    case JobVerdict::kOk: return "ok";
    case JobVerdict::kFailed: return "failed";
    case JobVerdict::kDeadline: return "deadline";
    case JobVerdict::kSkipped: return "skipped";
  }
  return "failed";
}

bool SweepReport::all_ok() const {
  for (const JobResult& j : jobs)
    if (!j.ok) return false;
  return true;
}

SweepTotals SweepReport::totals() const {
  SweepTotals t;
  for (const JobResult& j : jobs) {
    switch (j.verdict) {
      case JobVerdict::kDeadline: ++t.deadline; break;
      case JobVerdict::kSkipped: ++t.skipped; break;
      default: break;
    }
    if (!j.ok) {
      ++t.failed;
      continue;
    }
    ++t.ok;
    t.area += j.metrics.area;
    t.volume += j.metrics.volume;
    t.wire_length += j.metrics.total_wire_length;
    t.vias += j.metrics.via_count;
    if (j.metrics.max_wire_length > t.max_wire)
      t.max_wire = j.metrics.max_wire_length;
  }
  return t;
}

double SweepReport::utilization() const {
  const double denom = static_cast<double>(threads) * wall_ms;
  return denom > 0 ? busy_ms / denom : 0;
}

BatchLayoutEngine::BatchLayoutEngine(SweepOptions opt) : opt_(std::move(opt)) {}

SweepReport BatchLayoutEngine::run(const std::vector<SweepJob>& jobs) {
  obs::Span sweep_span("engine.sweep");
  sweep_span.arg("jobs", std::uint64_t{jobs.size()});
  obs::counter_add("engine.jobs.submitted", jobs.size());
  const Clock::time_point t0 = Clock::now();

  SweepReport report;
  report.jobs.resize(jobs.size());

  // Canonicalize every spec up front, serially: deterministic, cheap, and a
  // bad spec fails its job without ever occupying a worker. Each runnable
  // job gets the build-table slot of its canonical spec here, so workers
  // never hash spec text.
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::vector<std::string> keys(jobs.size());
  std::vector<std::size_t> slot(jobs.size(), 0);
  std::unordered_map<std::string, std::size_t> slot_of;
  std::vector<bool> runnable(jobs.size(), false);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobResult& r = report.jobs[i];
    r.spec = jobs[i].spec;
    r.L = jobs[i].options.L;
    DiagnosticSink sink(4);
    std::optional<api::FamilySpec> canon =
        reg.canonicalize(jobs[i].spec, &sink);
    if (!canon) {
      r.error = sink.first() != nullptr ? sink.first()->to_string()
                                        : "bad family spec";
      continue;
    }
    if (!api::validate_options(jobs[i].options, &sink)) {
      r.spec = std::move(*canon);
      r.error = sink.first()->to_string();
      continue;
    }
    r.spec = std::move(*canon);
    keys[i] = api::format_family_spec(r.spec);
    runnable[i] = true;
    slot[i] = slot_of.try_emplace(keys[i], slot_of.size()).first->second;
  }
  BuildTable table(slot_of.size());

  unsigned threads = opt_.threads != 0 ? opt_.threads
                                       : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > jobs.size()) threads = static_cast<unsigned>(jobs.size());
  if (threads == 0) threads = 1;
  report.threads = threads;

  // Sweep-wide budget: child of the external request_cancel() token so a
  // caller's cancellation and a sweep deadline share one cooperative path.
  CancelToken sweep_token(&external_cancel_);
  if (opt_.sweep_deadline_ms != 0)
    sweep_token.set_deadline_after_ms(opt_.sweep_deadline_ms);

  // Relaxed by design: `next` only hands out disjoint indices (the claimed
  // slot itself is the payload, and each report.jobs[i] has exactly one
  // writer); join() supplies the final happens-before. Audited in
  // DESIGN.md §7.10.
  std::atomic<std::size_t> next{0};
  auto worker = [&](unsigned wid) {
    // Per-worker latency histograms let a regression be localized: one slow
    // worker (pinned core, NUMA) looks different from uniformly slower jobs.
    // Names are built once per worker, only when a registry is installed.
    const bool per_worker = obs::metrics_enabled();
    const std::string wq =
        "engine.worker." + std::to_string(wid) + ".queue_wait_ms";
    const std::string wj = "engine.worker." + std::to_string(wid) + ".job_ms";
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      JobResult& r = report.jobs[i];
      if (!runnable[i]) {
        obs::counter_add("engine.jobs.failed");
        continue;
      }
      // A sweep budget tripped before this job started: structured skip,
      // no pipeline work, partial report stays deterministic.
      if (sweep_token.tripped()) {
        r.ok = false;
        r.verdict = JobVerdict::kSkipped;
        r.error = std::string(sweep_token.reason()) + " before job start";
        obs::counter_add("engine.deadline.sweep");
        obs::counter_add("engine.jobs.failed");
        continue;
      }
      r.queue_wait_ms = ms_since(t0);
      obs::histogram_record("engine.queue_wait_ms", r.queue_wait_ms);
      if (per_worker) obs::histogram_record(wq, r.queue_wait_ms);
      const Clock::time_point job_t0 = Clock::now();
      {
        // The parent link makes the sweep deadline observable mid-pipeline.
        CancelToken job_token(&sweep_token);
        if (opt_.job_deadline_ms != 0)
          job_token.set_deadline_after_ms(opt_.job_deadline_ms);
        CancelScope scope(&job_token);
        // Correlation tags: every phase span recorded inside this job nests
        // under an engine.job identified by what it was building.
        obs::Span job_span("engine.job");
        job_span.arg("spec", keys[i])
            .arg("L", std::uint64_t{jobs[i].options.L})
            .arg("worker", std::uint64_t{wid});
        try {
          const Orthogonal2Layer& ortho =
              table.get(slot[i], r.spec, &r.cache_hit);
          obs::counter_add(r.cache_hit ? "engine.cache.hit"
                                       : "engine.cache.miss");
          api::LayoutRequest req;
          req.spec = r.spec;
          req.options = jobs[i].options;
          req.check = opt_.check;
          api::LayoutResult res = api::run_layout(ortho, req, nullptr);
          r.ok = res.ok;
          r.error = std::move(res.error);
          r.nodes = res.nodes;
          r.edges = res.edges;
          r.metrics = std::move(res.metrics);
          r.verdict = r.ok ? JobVerdict::kOk : JobVerdict::kFailed;
        } catch (const CancelledError& ex) {
          // This job's budget (or the sweep's, mid-flight): structured
          // deadline verdict instead of a hung worker.
          r.ok = false;
          r.verdict = JobVerdict::kDeadline;
          r.error = ex.what();
          obs::counter_add(sweep_token.tripped_flag_only()
                               ? "engine.deadline.sweep"
                               : "engine.deadline.job");
        } catch (const std::exception& ex) {
          r.ok = false;
          r.verdict = JobVerdict::kFailed;
          r.error = ex.what();
        }
        job_span.arg("verdict", verdict_name(r.verdict));
      }
      r.run_ms = ms_since(job_t0);
      obs::histogram_record("engine.job_ms", r.run_ms);
      if (per_worker) obs::histogram_record(wj, r.run_ms);
      obs::counter_add(r.ok ? "engine.jobs.completed" : "engine.jobs.failed");
    }
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }

  report.wall_ms = ms_since(t0);
  for (const JobResult& j : report.jobs) report.busy_ms += j.run_ms;
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const JobResult& j = report.jobs[i];
    if (!runnable[i] || j.verdict == JobVerdict::kDeadline ||
        j.verdict == JobVerdict::kSkipped)
      continue;  // never reached (or never finished) the table lookup
    if (j.cache_hit)
      ++report.cache_hits;
    else
      ++report.cache_misses;
  }
  obs::gauge_set("engine.threads", threads);
  obs::gauge_set("engine.wall_ms", report.wall_ms);
  obs::gauge_set("engine.utilization", report.utilization());

  // Sweep-level budget outcome, as a structured warning the CLI can surface.
  if (sweep_token.tripped()) {
    Diagnostic d;
    d.code = Code::kSweepDeadline;
    d.severity = Severity::kWarning;
    d.detail = sweep_token.reason();
    report.warnings.push_back(std::move(d));
  }

  return report;
}

SweepReport run_sweep(const std::vector<SweepJob>& jobs,
                      const SweepOptions& opt) {
  BatchLayoutEngine eng(opt);
  return eng.run(jobs);
}

}  // namespace mlvl::engine
