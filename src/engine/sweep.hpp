// Parallel batch layout engine with deadlines.
//
// `BatchLayoutEngine::run` takes a list of jobs (canonical family spec ×
// RealizeOptions), executes the full pipeline per job — topology, collinear
// factors, placement, interval assignment, multilayer realization, geometric
// check, metrics — on a pool of worker threads, and returns per-job results
// **in submission order regardless of completion order**, so a parallel
// sweep's output is byte-identical to a serial one.
//
// The multilayer transform realizes one orthogonal 2-layer layout at every
// layer count, so jobs that share a spec share its `Orthogonal2Layer`: each
// `run` keeps a batch-local build-once table (DESIGN.md §7.10) that builds
// every spec once and dies when the batch returns.
//
// Failure containment: `job_deadline_ms` arms a cooperative CancelToken per
// job; `sweep_deadline_ms` arms one over the whole batch, parent of every
// job token. The pipeline's hot phases (topology, interval, realize, check)
// poll the installed token and unwind with CancelledError; the worker
// converts that into a `JobVerdict::kDeadline` result — a structured
// partial report, never a hung worker. Jobs not yet started when the sweep
// deadline trips come back `kSkipped`. A lost sweep is simply re-run.
//
// Observability: the whole batch runs under an "engine.sweep" span with one
// nested "engine.job" span per executed job; counters
// engine.jobs.submitted / .completed / .failed,
// engine.cache.hit / .miss and engine.deadline.job / .sweep; histograms
// engine.queue_wait_ms / engine.job_ms (aggregate) plus per-worker
// engine.worker.<i>.queue_wait_ms / .job_ms log2-histograms; gauges
// engine.threads / engine.wall_ms / engine.utilization.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/layout_api.hpp"
#include "core/cancel.hpp"

namespace mlvl::engine {

/// One unit of work: a family at one set of realize options.
struct SweepJob {
  api::FamilySpec spec;
  RealizeOptions options{};
};

/// How one job ended. `kOk` is success; the rest partition the failure
/// modes so a report can distinguish "wrong" from "over budget".
enum class JobVerdict : std::uint8_t {
  kOk = 0,       ///< succeeded
  kFailed,       ///< deterministic failure (bad spec, builder, checker)
  kDeadline,     ///< per-job deadline tripped mid-pipeline
  kSkipped,      ///< never started: sweep deadline / cancellation
};

/// Stable lowercase label ("ok", "failed", "deadline", "skipped").
[[nodiscard]] const char* verdict_name(JobVerdict v);

/// Outcome of one job, in submission order. Timings are informational and
/// vary run to run; everything else is deterministic.
struct JobResult {
  api::FamilySpec spec;       ///< canonical form
  std::uint32_t L = 0;
  bool ok = false;
  JobVerdict verdict = JobVerdict::kFailed;
  bool cache_hit = false;     ///< another job of the batch built the layout
  std::string error;          ///< first failure; empty when ok
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  LayoutMetrics metrics;
  double queue_wait_ms = 0;   ///< batch start -> job pickup
  double run_ms = 0;          ///< job pickup -> completion
};

struct SweepOptions {
  unsigned threads = 0;  ///< worker count; 0 = hardware concurrency
  bool check = true;     ///< run the geometric checker per job
  /// Cooperative wall-clock budgets; 0 = none. A tripped job budget yields
  /// JobVerdict::kDeadline; a tripped sweep budget cancels in-flight jobs
  /// and skips the rest.
  std::uint32_t job_deadline_ms = 0;
  std::uint32_t sweep_deadline_ms = 0;
};

/// Deterministic sums over the per-job metrics, in submission order.
struct SweepTotals {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;     ///< kFailed + kDeadline + kSkipped
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
  std::uint64_t cache_hits = 0;    ///< finished jobs that reused a layout
  std::uint64_t cache_misses = 0;  ///< finished jobs that built one
  std::vector<Diagnostic> warnings;  ///< e.g. a tripped sweep deadline

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
  /// submission order. Each spec's orthogonal layout is built at most once
  /// per batch (a build cancelled by its job's deadline is redone by the
  /// next job that needs it) and freed when the batch returns.
  [[nodiscard]] SweepReport run(const std::vector<SweepJob>& jobs);

  /// Cooperatively cancel the batch currently running. The token latches:
  /// later batches on this engine are skipped too. Safe from any thread.
  void request_cancel() { external_cancel_.cancel("engine cancelled"); }

 private:
  // Concurrency model (details in DESIGN.md §7.10). The engine itself holds
  // no mutex: run() is single-caller by contract (one batch at a time), and
  // everything workers share is either immutable once the pool starts
  // (opt_, the canonicalized key/slot/runnable tables), internally
  // synchronized (run's build table, the obs registry),
  // indexed disjointly (each worker writes only report.jobs[i] for the i it
  // claimed), or an atomic (the work-queue cursor). request_cancel() is the
  // one cross-thread entry point and touches only the CancelToken latch, so
  // it is safe from any thread, including a signal-adjacent shutdown path.
  SweepOptions opt_;             ///< immutable after construction
  CancelToken external_cancel_;  ///< request_cancel target; parents each sweep
};

/// One-shot convenience over a temporary engine.
[[nodiscard]] SweepReport run_sweep(const std::vector<SweepJob>& jobs,
                                    const SweepOptions& opt = {});

}  // namespace mlvl::engine
