// Structured diagnostics for layout verification and serialization.
//
// Every way a layout or an input file can be wrong has a stable `Code`; a
// `Diagnostic` pins the violation to an exact place (grid point, edge or node
// id, input line). Producers append to a `DiagnosticSink`, which callers size
// for their purpose: capacity 1 reproduces the historical first-failure
// behaviour, a larger capacity collects every violation in one pass (the
// `--doctor` mode of the layout tool, the fault-injection detection matrix,
// and the repair pipeline all rely on the complete list).
//
// Threading: `DiagnosticSink` is thread-safe, though no caller shares one
// across threads today: each sweep job, checker pass and CLI mode reports
// into a sink it owns (see DESIGN.md §7.10). All mutation and all
// aggregate queries lock `mu_`; the capacity checks `full()` / `size()` /
// `empty()` read a relaxed atomic mirror of the retained count instead, so
// the checker's per-grid-point early-out bound costs one atomic load, not a
// lock. `diagnostics()` / `first()` return references into the sink;
// `report` may reallocate the underlying vector, so those references are
// only safe to use once producers have quiesced.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"

namespace mlvl {

/// Sentinel for "no edge/node implicated".
inline constexpr std::uint32_t kNoId = 0xffffffffu;

/// Every violation class the checker and the readers can report.
enum class Code : std::uint16_t {
  kNone = 0,

  // Geometry frame.
  kCoordRange,        ///< layout exceeds checker coordinate range
  kBoxCountMismatch,  ///< box count != node count
  kBoxUnknownNode,    ///< box names a node id outside the graph
  kBoxDuplicate,      ///< two boxes claim the same node
  kBoxOutOfBounds,    ///< box extends past the layout rectangle
  kBoxLayerRange,     ///< box layer outside [1, num_layers]
  kBoxOverlap,        ///< two node boxes share a grid point

  // Per-record wire validity.
  kSegUnknownEdge,    ///< segment names an edge id outside the graph
  kSegMalformed,      ///< segment not axis-aligned or not normalized
  kSegOutOfBounds,    ///< segment extends past the layout rectangle
  kSegLayerRange,     ///< segment layer outside [1, num_layers]
  kViaUnknownEdge,    ///< via names an edge id outside the graph
  kViaSpanInvalid,    ///< via z-range empty or outside [1, num_layers]
  kViaOutOfBounds,    ///< via (x, y) past the layout rectangle

  // Global routing rules.
  kPointCollision,      ///< one grid point claimed by two different edges
  kTerminalTheft,       ///< wire enters the box of a non-endpoint node
  kEdgeUnrouted,        ///< edge has no geometry at all
  kEdgeDisconnected,    ///< edge geometry is not one connected component
  kEdgeMissesTerminal,  ///< connected wire fails to touch an endpoint box

  // Serialization.
  kParseBadHeader,        ///< missing/unknown format tag or version
  kParseBadRecord,        ///< record with wrong tag arity or non-numeric field
  kParseBadValue,         ///< well-formed record with an out-of-range value
  kParseTrailingGarbage,  ///< bytes after a complete graph+geometry block
  kFileMissing,           ///< could not open the input file at all

  // Static lint (Severity::kWarning producers; see analysis/lint). Each code
  // is one lint rule; the kebab-case code_name is the rule's stable id.
  kLintLayerParity,     ///< horizontal run on an even layer or vice versa
  kLintTurnViaGroup,    ///< turn via pairs layers of two different groups
  kLintViaSpanWide,     ///< turn via spans >1 boundary under the strict rule
  kLintKnockKnee,       ///< two edges bend at one point in an L=2 layout
  kLintTerminalRiser,   ///< riser lands in a node box interior, not a terminal
  kLintZeroLengthSeg,   ///< degenerate single-point segment
  kLintMergeableRuns,   ///< adjacent collinear same-edge same-layer runs
  kLintRedundantVia,    ///< overlapping same-edge vias at one (x, y)
  kLintDeadTrack,       ///< fully unused row/column inside the content box
  kLintBboxSlack,       ///< declared bounding box not tight to content

  // Family-spec / API boundary (src/api). `detail` names the parameter.
  kSpecUnknownFamily,   ///< family name not in the registry
  kSpecUnknownParam,    ///< parameter name not declared by the family
  kSpecMissingParam,    ///< required parameter absent from the spec
  kSpecBadValue,        ///< malformed or out-of-range parameter value
  kSpecBadLayerCount,   ///< RealizeOptions::L outside [2, 1024]

  // Engine resource governance (src/engine). A job that trips its own
  // budget gets the kDeadline verdict, not a diagnostic.
  kSweepDeadline,       ///< the whole sweep exceeded its deadline / cancelled
};

enum class Severity : std::uint8_t { kWarning, kError };

/// Stable kebab-case identifier for a code (table output, test labels).
[[nodiscard]] const char* code_name(Code c);

/// One concrete violation with its exact location.
struct Diagnostic {
  Code code = Code::kNone;
  Severity severity = Severity::kError;

  bool has_point = false;       ///< x/y/layer below are meaningful
  std::uint32_t x = 0, y = 0;
  std::uint16_t layer = 0;

  std::uint32_t edge = kNoId;   ///< primary implicated edge
  std::uint32_t edge2 = kNoId;  ///< second edge (point collisions)
  std::uint32_t node = kNoId;   ///< implicated node
  std::uint32_t line = 0;       ///< 1-based input line (parse codes), 0 = n/a

  std::string detail{};         ///< extra free-form context

  /// Human-readable one-liner, e.g.
  /// "wire collision at (4,7,3) between edge 12 and edge 31".
  [[nodiscard]] std::string to_string() const;
};

/// Bounded collector of diagnostics. Producers must stop doing expensive
/// work once `full()`; a sink of capacity 1 therefore behaves like the
/// historical first-failure checker. Thread-safe (see header comment for
/// the reference-returning accessors' quiesce-before-read contract).
class DiagnosticSink {
 public:
  explicit DiagnosticSink(std::size_t capacity = 256) : capacity_(capacity) {}

  /// Appends `d`. At capacity, a warning is dropped (returns false, counts
  /// the drop) but an error evicts the newest warning, so a full sink never
  /// hides an error behind earlier warnings: a capacity-1 sink keeps the
  /// first *error*, reproducing the historical first-failure checker even
  /// when warnings share the sink.
  bool report(Diagnostic d) MLVL_EXCLUDES(mu_);

  /// Hot-path early-out bound: one relaxed atomic load of the retained
  /// count (checker loops poll this per scan step). Monotone while
  /// producers run except across `clear()`.
  [[nodiscard]] bool full() const {
    return retained_.load(std::memory_order_relaxed) >= capacity_;
  }
  [[nodiscard]] bool empty() const {
    return retained_.load(std::memory_order_relaxed) == 0;
  }
  [[nodiscard]] std::size_t size() const {
    return retained_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t dropped() const MLVL_EXCLUDES(mu_);
  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const
      MLVL_EXCLUDES(mu_);
  [[nodiscard]] const Diagnostic* first() const MLVL_EXCLUDES(mu_);
  [[nodiscard]] bool has(Code c) const MLVL_EXCLUDES(mu_);
  [[nodiscard]] std::size_t count(Code c) const MLVL_EXCLUDES(mu_);
  /// Retained diagnostics by severity (dropped/evicted ones not included).
  [[nodiscard]] std::size_t errors() const MLVL_EXCLUDES(mu_);
  [[nodiscard]] std::size_t warnings() const MLVL_EXCLUDES(mu_);

  /// Totals over everything ever reported, including diagnostics dropped or
  /// evicted at capacity — the numbers doctor/lint runs print so a full sink
  /// never under-reports. Also published to the obs MetricsRegistry (when
  /// one is installed) as diag.errors / diag.warnings / diag.evicted.
  [[nodiscard]] std::size_t total_errors() const MLVL_EXCLUDES(mu_);
  [[nodiscard]] std::size_t total_warnings() const MLVL_EXCLUDES(mu_);
  /// Warnings evicted by a later error at capacity (a subset of dropped()).
  [[nodiscard]] std::size_t evicted() const MLVL_EXCLUDES(mu_);

  void clear() MLVL_EXCLUDES(mu_);

  /// Aggregate one-liner, e.g. "3x point-collision, 1x box-overlap (+12 more)".
  [[nodiscard]] std::string summary() const MLVL_EXCLUDES(mu_);

 private:
  const std::size_t capacity_;  ///< immutable after construction
  /// Relaxed mirror of diags_.size(), maintained under mu_, so full()/size()
  /// never take the lock (snapshot semantic: exact once producers quiesce).
  std::atomic<std::size_t> retained_{0};

  mutable Mutex mu_;
  std::vector<Diagnostic> diags_ MLVL_GUARDED_BY(mu_);
  std::size_t dropped_ MLVL_GUARDED_BY(mu_) = 0;
  std::size_t evicted_ MLVL_GUARDED_BY(mu_) = 0;
  std::size_t total_errors_ MLVL_GUARDED_BY(mu_) = 0;
  std::size_t total_warnings_ MLVL_GUARDED_BY(mu_) = 0;
};

}  // namespace mlvl
