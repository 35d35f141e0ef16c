// Trace profiler: turns a span trace into attribution.
//
// Consumes either a live `TraceSession` or a Chrome trace-event file
// written by `write_chrome_trace` (re-parsed with io::parse_json) and
// computes, per phase name, inclusive vs. exclusive (self) time — the
// number that says where wall time actually went, with nested phases'
// time charged to the nested phase, not its parent — plus per-thread
// busy/idle utilization, the critical path (longest root span, then its
// longest child, and so on down), and the top-K slowest `engine.job`
// spans with their correlation args.
//
// Nesting is derived from interval containment per thread (sorted by
// begin time, recorded depth when available, then duration), so traces
// from any producer profile correctly as long as spans nest within one
// thread — the contract obs::Span already enforces. Spans that straddle
// (overlap without containment) are treated as roots rather than guessed
// at.
//
// Reports are emitted as an aligned text table (`write_text`) and as
// `mlvl-profile-v1` JSON (`write_json`), both stamped with the run id.
// Lives in mlvl_benchkit: the file path needs io::parse_json (mlvl_core),
// which mlvl_obs must not depend on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace mlvl::obs {

/// Depth sentinel: "not recorded, derive from containment".
inline constexpr std::uint32_t kProfileDepthUnknown = 0xffffffffu;

/// One span in profiler-owned form (names and args copied out of whatever
/// produced them — a live session or a parsed JSON document).
struct ProfileEvent {
  std::string name;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = kProfileDepthUnknown;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Aggregate for every span sharing one phase name.
struct PhaseStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t incl_us = 0;  ///< sum of span durations
  std::uint64_t excl_us = 0;  ///< durations minus direct children (self time)
};

/// Busy/idle accounting for one thread. `busy_us` is the union of the
/// thread's root spans (spans nest, so roots never overlap within a
/// thread); `self_us` is the sum of exclusive times, which equals busy_us
/// when derivation is consistent and can never exceed the trace wall time.
struct ThreadStats {
  std::uint32_t tid = 0;
  std::string label;  ///< "main" for the lowest tid, else "worker-<tid>"
  std::uint64_t spans = 0;
  std::uint64_t busy_us = 0;
  std::uint64_t self_us = 0;
  double utilization = 0;  ///< busy_us / wall_us (0 when wall is 0)
};

/// One hop of the critical path, root first.
struct CriticalPathHop {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t excl_us = 0;
};

/// One of the top-K slowest engine.job spans, with its correlation args.
struct SlowJob {
  std::string spec;
  std::uint64_t L = 0;
  std::string verdict;
  std::uint64_t worker = 0;
  std::uint64_t dur_us = 0;
};

struct ProfileOptions {
  std::size_t top_k = 10;  ///< slowest-job rows kept in the report
};

struct ProfileReport {
  std::string run_id;
  std::size_t events = 0;
  std::uint64_t begin_us = 0;  ///< earliest span begin
  std::uint64_t wall_us = 0;   ///< latest span end minus earliest begin
  std::vector<PhaseStats> phases;             ///< inclusive time descending
  std::vector<ThreadStats> threads;           ///< tid ascending
  std::vector<CriticalPathHop> critical_path; ///< root first
  std::vector<SlowJob> slowest_jobs;          ///< duration descending

  [[nodiscard]] bool has_phase(std::string_view name) const;

  /// Aligned human-readable tables (phases, threads, critical path, jobs).
  void write_text(std::ostream& os) const;
  /// `mlvl-profile-v1` JSON document.
  void write_json(std::ostream& os) const;
};

/// Profile hand-built or pre-converted events. `run_id` is carried into the
/// report verbatim (pass obs::run_id() for live data).
[[nodiscard]] ProfileReport profile_events(std::vector<ProfileEvent> events,
                                           std::string run_id,
                                           const ProfileOptions& opt = {});

/// Profile a live session's completed spans (stamped with obs::run_id()).
[[nodiscard]] ProfileReport profile_session(const TraceSession& session,
                                            const ProfileOptions& opt = {});

/// Profile a Chrome trace-event document (text form). Returns nullopt and
/// sets `*error` (when non-null) if the text does not parse as JSON or has
/// no traceEvents array. Metadata ("M") events are ignored; the report's
/// run id comes from the document's "runId" key when present.
[[nodiscard]] std::optional<ProfileReport> profile_chrome_trace_text(
    std::string_view text, std::string* error,
    const ProfileOptions& opt = {});

/// File helper: read + parse + profile. nullopt (with `*error` set) when
/// the file is unreadable or not a Chrome trace.
[[nodiscard]] std::optional<ProfileReport> load_profile_chrome_trace(
    const std::string& path, std::string* error,
    const ProfileOptions& opt = {});

}  // namespace mlvl::obs
