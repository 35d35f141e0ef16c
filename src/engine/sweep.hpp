// Parallel batch layout engine with resource governance.
//
// `BatchLayoutEngine::run` takes a list of jobs (canonical family spec ×
// RealizeOptions), executes the full pipeline per job — topology, collinear
// factors, placement, interval assignment, multilayer realization, geometric
// check, metrics — on a pool of worker threads, and returns per-job results
// **in submission order regardless of completion order**, so a parallel
// sweep's output is byte-identical to a serial one.
//
// The expensive spec-only half of each job is deduplicated through an
// `OrthoCache` keyed by canonical spec text: sweeping one topology over many
// layer counts builds the orthogonal layout once and realizes it per L. The
// cache persists across `run` calls, making the engine a long-lived service;
// `cache_capacity` / `cache_capacity_bytes` bound it with LRU eviction so a
// sustained request stream cannot grow it without limit.
//
// Failure containment (the governance layer):
//  * **Deadlines.** `job_deadline_ms` arms a cooperative CancelToken per
//    job; `sweep_deadline_ms` arms one over the whole batch, parent of every
//    job token. The pipeline's hot phases (topology, interval, routing,
//    check) poll the installed token and unwind with CancelledError; the
//    worker converts that into a `JobVerdict::kDeadline` result — a
//    structured partial report, never a hung worker. Jobs not yet started
//    when the sweep deadline trips come back `kSkipped`.
//  * **Retry.** A job failing with `TransientError` (chaos injection, future
//    transient environments) is retried up to `max_retries` times with
//    deterministic exponential backoff + jitter derived from the job index —
//    no wall-clock dependence, so -j1 and -j8 retry schedules decide
//    identically. Deterministic failures (bad spec, checker rejection,
//    builder errors) never retry.
//  * **Checkpoint/resume.** With a `SweepJournal` attached, every finished
//    job (ok / retried / deterministically failed) is appended — one flushed
//    line per job — and a `SweepResume` loaded from such a journal lets the
//    next run skip completed spec×L keys while reproducing their results in
//    submission order, byte-identical to an uninterrupted run.
//
// Observability: the whole batch runs under an "engine.sweep" span with one
// nested "engine.job" span per executed attempt; counters
// engine.jobs.submitted / .completed / .failed / .resumed,
// engine.cache.hit / .miss / .evicted / .soft_overflow,
// engine.retry.attempts / .success / .exhausted, and
// engine.deadline.job / .sweep; histograms engine.queue_wait_ms /
// engine.job_ms (aggregate) plus per-worker
// engine.worker.<i>.queue_wait_ms / .job_ms log2-histograms; gauges
// engine.threads / engine.wall_ms / engine.utilization /
// engine.cache.size / engine.cache.bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "api/layout_api.hpp"
#include "core/cancel.hpp"
#include "engine/ortho_cache.hpp"

namespace mlvl::engine {

class SweepJournal;
struct SweepResume;

/// One unit of work: a family at one set of realize options.
struct SweepJob {
  api::FamilySpec spec;
  RealizeOptions options{};
};

/// How one job ended. `kOk`/`kRetried` are successes; the rest partition the
/// failure modes so a report can distinguish "wrong" from "over budget".
enum class JobVerdict : std::uint8_t {
  kOk = 0,       ///< succeeded on the first attempt
  kRetried,      ///< succeeded after >= 1 transient-failure retry
  kFailed,       ///< deterministic failure (bad spec, checker, exhausted retry)
  kDeadline,     ///< per-job deadline tripped mid-pipeline
  kSkipped,      ///< never started: sweep deadline / cancellation
};

/// Stable lowercase label ("ok", "retried", "failed", "deadline", "skipped").
[[nodiscard]] const char* verdict_name(JobVerdict v);
/// Inverse of verdict_name; used by the journal reader.
[[nodiscard]] bool verdict_from_name(std::string_view name, JobVerdict& out);

/// Outcome of one job, in submission order. Timings are informational and
/// vary run to run; everything else is deterministic.
struct JobResult {
  api::FamilySpec spec;       ///< canonical form
  std::uint32_t L = 0;
  bool ok = false;
  JobVerdict verdict = JobVerdict::kFailed;
  std::uint32_t attempts = 0; ///< pipeline executions (0 = never started;
                              ///< resumed jobs keep their recorded count)
  bool cache_hit = false;     ///< orthogonal layout came from the cache
  bool resumed = false;       ///< reproduced from a SweepResume journal
  std::string error;          ///< first failure; empty when ok
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  LayoutMetrics metrics;
  double queue_wait_ms = 0;   ///< batch start -> job pickup
  double run_ms = 0;          ///< job pickup -> completion (all attempts)
};

struct SweepOptions {
  unsigned threads = 0;  ///< worker count; 0 = hardware concurrency
  bool check = true;     ///< run the geometric checker per job
  /// Checker workers per job (CheckOptions::threads). Default 1: the
  /// sweep already parallelizes across jobs; raise it only for single-job
  /// batches on huge layouts.
  std::uint32_t check_threads = 1;
  bool use_cache = true; ///< share Orthogonal2Layer across same-spec jobs
  /// Topology-cache entries past which a kWarning diagnostic is emitted
  /// (into SweepReport::warnings) and engine.cache.soft_overflow ticks.
  /// 0 = unbounded. Re-armed per run, so every over-capacity sweep warns.
  std::size_t cache_soft_capacity = 256;
  /// Hard cache bounds with LRU eviction; 0 = unbounded.
  std::size_t cache_capacity = 0;
  std::size_t cache_capacity_bytes = 0;
  /// Cooperative wall-clock budgets; 0 = none. A tripped job budget yields
  /// JobVerdict::kDeadline; a tripped sweep budget cancels in-flight jobs
  /// and skips the rest.
  std::uint32_t job_deadline_ms = 0;
  std::uint32_t sweep_deadline_ms = 0;
  /// Retry-with-backoff for TransientError failures. attempts = 1 + retries.
  std::uint32_t max_retries = 0;
  std::uint32_t retry_backoff_ms = 1;  ///< base; doubles per retry + jitter
  /// Test/chaos seam: when set, a job attempt for which this returns true
  /// fails with an injected TransientError before touching the pipeline.
  /// Must be deterministic in (job index, attempt) to preserve the -j1/-jN
  /// determinism contract.
  std::function<bool(std::size_t job, std::uint32_t attempt)> inject_fault =
      nullptr;
  /// Optional crash-safe journal: finished jobs are appended (and flushed)
  /// as they complete. Non-owning; must outlive run().
  SweepJournal* journal = nullptr;
  /// Optional resume set: jobs whose spec×L key is present are not executed;
  /// their recorded results are reproduced in place. Non-owning.
  const SweepResume* resume = nullptr;
};

/// Deterministic sums over the per-job metrics, in submission order.
struct SweepTotals {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;     ///< kFailed + kDeadline + kSkipped
  std::uint64_t retried = 0;    ///< subset of ok
  std::uint64_t deadline = 0;   ///< subset of failed
  std::uint64_t skipped = 0;    ///< subset of failed
  std::uint64_t area = 0;
  std::uint64_t volume = 0;
  std::uint64_t wire_length = 0;
  std::uint64_t vias = 0;
  std::uint64_t max_wire = 0;  ///< max over jobs
};

struct SweepReport {
  std::vector<JobResult> jobs;  ///< submission order, always
  unsigned threads = 1;
  double wall_ms = 0;
  double busy_ms = 0;           ///< sum of per-job run times
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;  ///< LRU evictions during this batch
  std::uint64_t resumed = 0;          ///< jobs reproduced from the journal
  std::uint64_t retry_attempts = 0;   ///< transient failures seen this batch
  std::size_t cache_entries = 0;      ///< cache size after the batch
  std::size_t cache_bytes = 0;        ///< approximate resident footprint
  std::vector<Diagnostic> warnings;   ///< e.g. cache soft-capacity crossings

  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] SweepTotals totals() const;
  /// busy / (threads * wall); 1.0 = every worker busy the whole batch.
  [[nodiscard]] double utilization() const;
};

class BatchLayoutEngine {
 public:
  explicit BatchLayoutEngine(SweepOptions opt = {});

  /// Run one batch. Specs are canonicalized up front (bad specs become
  /// failed results without occupying a worker); results come back in
  /// submission order. The topology cache carries over to the next batch.
  [[nodiscard]] SweepReport run(const std::vector<SweepJob>& jobs);

  /// Cooperatively cancel the batch currently running. The token latches:
  /// later batches on this engine are skipped too, so this is the serving
  /// daemon's shutdown path. Safe from any thread.
  void request_cancel() { external_cancel_.cancel("engine cancelled"); }

  [[nodiscard]] const SweepOptions& options() const { return opt_; }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }

 private:
  // Concurrency model (details in DESIGN.md §7.10). The engine itself holds
  // no mutex: run() is single-caller by contract (one batch at a time), and
  // everything workers share is either immutable once the pool starts
  // (opt_, the canonicalized keys/runnable/resumed tables), internally
  // synchronized (cache_, the journal, the obs registry), indexed disjointly
  // (each worker writes only report.jobs[i] for the i it claimed), or an
  // atomic (the work-queue cursor). request_cancel() is the one cross-thread
  // entry point and touches only the CancelToken latch, so it is safe from
  // any thread, including a signal-adjacent shutdown path.
  SweepOptions opt_;             ///< immutable after construction
  OrthoCache cache_;             ///< internally synchronized (sharded locks)
  CancelToken external_cancel_;  ///< request_cancel target; parents each sweep
};

/// One-shot convenience over a temporary engine.
[[nodiscard]] SweepReport run_sweep(const std::vector<SweepJob>& jobs,
                                    const SweepOptions& opt = {});

}  // namespace mlvl::engine
