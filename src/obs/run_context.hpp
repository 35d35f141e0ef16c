// Process-wide run identity for the flight recorder.
//
// Every observability artifact a single process emits — Chrome trace,
// metrics JSON/CSV, bench records — is stamped with one `run_id` so
// artifacts from the same run can be correlated after the fact (and
// artifacts from interleaved CI lanes can be told apart). The
// id is generated lazily on first use from the wall clock and a
// per-process entropy mix ("run-<16 hex>"); the `MLVL_RUN_ID` environment
// variable overrides it, and `set_run_id` lets tests and tools pin a
// deterministic value.
//
// Like TraceSession::install, `set_run_id` is meant for process setup:
// call it on the main thread before spawning worker threads that emit
// artifacts. Lazy generation itself is thread-safe (magic static).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace mlvl::obs {

/// Identity of the current process run. Carried by value in reports;
/// the process-wide instance lives behind `run_context()`.
struct RunContext {
  std::string run_id;
};

/// The process-wide run context. First call resolves the run id:
/// `MLVL_RUN_ID` if set and non-empty, else a generated "run-<16 hex>".
[[nodiscard]] RunContext& run_context();

/// Shorthand for `run_context().run_id`.
[[nodiscard]] const std::string& run_id();

/// Pin the process run id (tests, tools propagating an id across processes).
void set_run_id(std::string_view id);

/// JSON string-body escaping shared by every emitter in the flight
/// recorder (trace, metrics, profile, bench env). Writes the escaped characters only —
/// callers supply the surrounding quotes.
void write_json_escaped(std::ostream& os, std::string_view s);

}  // namespace mlvl::obs
