// Phase tracing for the layout pipeline.
//
// A `TraceSession` collects scoped spans — one per pipeline phase (placement,
// interval, realize, fold, check, lint, repair, ...) — with monotonic-clock
// timestamps and writes them as Chrome trace-event JSON ("traceEvents" of
// "ph":"X" complete events), loadable directly in Perfetto or
// chrome://tracing.
//
// Instrumentation sites construct a `Span` (RAII): the constructor stamps the
// begin time, the destructor records the completed event, so early returns
// and exceptions always balance. Sessions are installed process-wide;
// when none is installed the `Span` constructor is one relaxed atomic load
// and a branch — the null-sink fast path that keeps instrumented hot paths
// benchmark-neutral. Recording is thread-safe (one mutex around the event
// vector); nesting depth and thread ids are tracked per thread.
//
// A session must outlive every span opened while it is installed: install
// around a whole pipeline run, uninstall after the last phase returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "core/thread_annotations.hpp"

namespace mlvl::obs {

/// Bounds of the per-span arg payload: at most `kMaxSpanArgs` key/value
/// slots per span, values truncated to `kSpanArgValueCap - 1` bytes. The
/// slots are fixed-size so attaching args never allocates and the null-sink
/// fast path stays one relaxed load + branch (unused slots are left
/// untouched; only `arg_count` slots are ever read).
inline constexpr std::uint32_t kMaxSpanArgs = 6;
inline constexpr std::size_t kSpanArgValueCap = 48;

/// One key/value arg slot. `key` must point at a string literal; the value
/// is copied (and NUL-terminated) into the inline buffer. Intentionally no
/// default member initializers: a Span embeds an array of these and must
/// not pay for zeroing them when tracing is disabled. `Span::arg` fully
/// initializes every slot it hands out.
struct TraceArg {
  const char* key;
  char value[kSpanArgValueCap];
};

/// One completed span. `name` must point at a string literal (instrumentation
/// sites pass phase names; nothing is copied on the hot path).
struct TraceEvent {
  const char* name = "";
  std::uint64_t ts_us = 0;   ///< begin, microseconds since session start
  std::uint64_t dur_us = 0;  ///< end - begin
  std::uint32_t tid = 0;     ///< small per-session thread index
  std::uint32_t depth = 0;   ///< span nesting depth at begin (0 = top level)
  std::uint32_t arg_count = 0;       ///< populated entries of `args`
  TraceArg args[kMaxSpanArgs] = {};  ///< first `arg_count` slots are valid
};

class TraceSession {
 public:
  TraceSession();
  ~TraceSession();  ///< uninstalls itself if still current

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Make this session the process-wide recording target / stop recording.
  void install();
  static void uninstall();
  [[nodiscard]] static TraceSession* current();

  /// Microseconds since the session epoch (monotonic clock).
  [[nodiscard]] std::uint64_t now_us() const;
  void record(const TraceEvent& ev) MLVL_EXCLUDES(mu_);

  /// Snapshot of every completed span, in completion order.
  [[nodiscard]] std::vector<TraceEvent> events() const MLVL_EXCLUDES(mu_);
  [[nodiscard]] std::size_t size() const MLVL_EXCLUDES(mu_);
  [[nodiscard]] bool has_span(std::string_view name) const MLVL_EXCLUDES(mu_);

  /// Chrome trace-event JSON: {"displayTimeUnit":"ms","runId":"...",
  /// "traceEvents":[...]} — "M" metadata events naming the process and each
  /// thread (main / worker-N) first, then one "ph":"X" complete event per
  /// span with its args. The run id comes from obs::run_id().
  void write_chrome_trace(std::ostream& os) const MLVL_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<TraceEvent> events_ MLVL_GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point epoch_;  ///< immutable after ctor
};

namespace detail {
/// Process-wide recording target; same relaxed-order contract as
/// obs::detail::g_metrics — install before spawning recording threads, join
/// them before the session dies (a Span caches this pointer for its whole
/// lifetime, so the session must outlive every open span).
extern std::atomic<TraceSession*> g_trace;
}  // namespace detail

/// True iff a session is installed (the one branch disabled tracing costs).
[[nodiscard]] inline bool tracing_enabled() {
  return detail::g_trace.load(std::memory_order_relaxed) != nullptr;
}

/// RAII scoped span. Nestable; balanced on every control path.
///
/// `arg` attaches a bounded key/value payload recorded with the completed
/// event (kMaxSpanArgs slots; longer values are truncated to fit
/// kSpanArgValueCap). Keys must be string literals; duplicate keys are the
/// caller's bug (the emitter writes slots verbatim). With no session
/// installed, arg() is a single branch — the null-sink contract holds.
class Span {
 public:
  explicit Span(const char* name)
      : session_(detail::g_trace.load(std::memory_order_relaxed)) {
    if (session_ == nullptr) return;  // null-sink fast path
    begin(name);
  }
  ~Span() {
    if (session_ != nullptr) end();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span& arg(const char* key, std::string_view value);
  Span& arg(const char* key, std::uint64_t value);

 private:
  void begin(const char* name);
  void end();

  TraceSession* session_;
  const char* name_ = "";
  std::uint64_t begin_us_ = 0;
  std::uint32_t depth_ = 0;
  std::uint32_t nargs_ = 0;
  TraceArg args_[kMaxSpanArgs];  ///< first nargs_ slots valid; rest untouched
};

}  // namespace mlvl::obs
