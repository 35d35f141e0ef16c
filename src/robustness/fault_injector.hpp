// Seeded fault-injection catalog over valid layouts.
//
// Each operator applies one realistic corruption — the emitter and tooling
// bugs the checker exists to catch — and declares the diagnostic `Code` the
// checker (or the reader, for serialized-text faults) is guaranteed to emit
// for it. The guarantee is constructive: operators search seeded candidate
// sites and verify a purely geometric precondition (e.g. "this via is the
// wire's only anchor inside its terminal box") before mutating, so the
// declared code never depends on luck. The preconditions are decided on
// records with the checker's own predicates (RecordBox, gap, meets,
// connected in core/checker.hpp), never on expanded grid points. This turns ad-hoc mutation tests into a provable
// detection matrix: for every FaultKind, inject then verify that the
// declared code is among the reported diagnostics.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/diagnostics.hpp"
#include "core/geometry.hpp"
#include "core/graph.hpp"

namespace mlvl::robustness {

enum class FaultKind : std::uint8_t {
  // Geometry faults (mutate a LayoutGeometry in place).
  kShiftSegmentOffTrack,  ///< slide a track run one row/column sideways
  kSwapSegmentLayer,      ///< move a track run to another wiring layer
  kRelabelSegment,        ///< attribute a segment to a different edge
  kDiagonalSegment,       ///< break a segment's axis alignment
  kDropVia,               ///< delete the via that alone anchors a terminal
  kDuplicateViaForeign,   ///< duplicate a via under a different edge id
  kTruncateViaSpan,       ///< cut a terminal via short of its node box
  kInvertViaSpan,         ///< make a via's z-range empty
  kStealTerminal,         ///< swap the node labels of two boxes
  kOverlapNodeBoxes,      ///< move one box onto another
  kDuplicateNodeBox,      ///< emit a second box for the same node
  kPushBoxOutOfBounds,    ///< move a box past the layout rectangle
  kShrinkBoundingBox,     ///< shrink the declared grid under live wires
  kUnrouteEdge,           ///< delete every segment and via of one edge
  // Discipline faults: invisible to the checker (the layout stays valid),
  // guaranteed to trip the linter (analysis/lint).
  kDemoteToWrongLayer,    ///< move a horizontal run to an even layer
  // Serialized-text faults (mutate an mlvl v1 text blob in place).
  kCorruptHeader,         ///< damage the format tag
  kTruncateRecord,        ///< cut the blob mid-record
  kAppendGarbage,         ///< append bytes after the geometry block
};

/// Description of a successfully injected fault.
struct InjectedFault {
  FaultKind kind;
  Code expected;     ///< diagnostic code this fault must trigger
  std::string note;  ///< what was mutated (for test failure messages)
};

/// The whole catalog, in declaration order.
[[nodiscard]] std::span<const FaultKind> all_faults();
[[nodiscard]] const char* fault_name(FaultKind k);
/// True for the operators that corrupt serialized text instead of geometry.
[[nodiscard]] bool is_text_fault(FaultKind k);
/// True for the operators whose corruption keeps the layout checker-valid
/// and is detected by the linter instead (expected_code is a lint code).
[[nodiscard]] bool is_lint_fault(FaultKind k);
/// The diagnostic code the operator declares it must trigger.
[[nodiscard]] Code expected_code(FaultKind k);

/// Apply a geometry fault in place. Returns nullopt when the layout offers
/// no applicable site (e.g. kRelabelSegment on a single-edge graph); the
/// geometry is untouched in that case. Requires !is_text_fault(kind).
std::optional<InjectedFault> inject(FaultKind kind, const Graph& g,
                                    LayoutGeometry& geom, std::uint64_t seed);

/// Apply a serialized-text fault in place. Requires is_text_fault(kind).
std::optional<InjectedFault> inject_text(FaultKind kind, std::string& text,
                                         std::uint64_t seed);

/// Seeded byte-level corruption (flip / insert / delete / truncate /
/// duplicate) for fuzzing: readers must diagnose, never crash.
[[nodiscard]] std::string corrupt_bytes(std::string text, std::uint64_t seed);

}  // namespace mlvl::robustness
