// mlvl-lint — rule-based static analysis of layout geometry.
//
// The checker (core/checker) proves hard validity: disjointness, frame
// integrity, per-edge connectivity. The linter proves the soft contract on
// top of it: the Sec. 2.4 routing *discipline* (horizontal runs on odd
// layers, vertical runs on even layers, turns confined to one layer group)
// and canonical, area-tight emission (no degenerate stubs, no mergeable
// runs, no dead tracks, a bounding box tight to content). A layout can pass
// every checker rule while silently wasting tracks or breaking discipline —
// e.g. a horizontal run demoted to an even layer stays disjoint and
// connected, and only the linter sees it.
//
// Every rule has a stable kebab-case id (== code_name of the Code it emits),
// reports every finding as Severity::kWarning through the ordinary
// DiagnosticSink (`layout_tool --lint -strict` fails on warnings), and can be
// switched off. LintConfig provides the per-rule enable switches and
// a suppression baseline: a line-oriented file of finding fingerprints that
// are intentional and must not be reported again.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/diagnostics.hpp"
#include "core/geometry.hpp"
#include "core/geometry_index.hpp"
#include "core/graph.hpp"
#include "core/multilayer.hpp"

namespace mlvl::analysis {

/// Every lint rule, in registry order.
enum class LintRule : std::uint8_t {
  // Discipline conformance (Sec. 2.4).
  kLayerParity,
  kTurnViaGroup,
  kViaSpanWide,
  kThompsonKnockKnee,
  kTerminalRiserOfftrack,
  // Canonical form / area tightness.
  kZeroLengthSeg,
  kMergeableRuns,
  kRedundantVia,
  kDeadTrack,
  kBboxSlack,
};

inline constexpr std::size_t kNumLintRules = 10;

struct LintRuleInfo {
  LintRule rule;
  Code code;          ///< diagnostic code this rule emits
  const char* id;     ///< stable kebab-case id (== code_name(code))
  const char* span;   ///< trace span name, `lint.<id>`; `id` points into it
  const char* what;   ///< one line: the property the rule proves
};

/// The whole registry, in LintRule order.
[[nodiscard]] std::span<const LintRuleInfo> lint_registry();
[[nodiscard]] std::optional<LintRule> lint_rule_from_id(std::string_view id);

/// Suppression baseline: the set of finding fingerprints that are known and
/// intentional. Line-oriented text; '#' starts a comment; a line holding
/// "<rule-id> *" suppresses the whole rule, any other line suppresses one
/// exact fingerprint (see lint_fingerprint).
class LintBaseline {
 public:
  /// Parse from a stream. Unknown rule ids are kept verbatim (a baseline
  /// written by a newer tool must not break an older one).
  static LintBaseline parse(std::istream& is);
  /// Load from a file; nullopt when the file cannot be opened.
  static std::optional<LintBaseline> load(const std::string& path);

  void add(std::string fingerprint);
  [[nodiscard]] bool suppresses(const Diagnostic& d) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void write(std::ostream& os) const;

 private:
  std::vector<std::string> entries_;  ///< sorted, unique
};

struct LintConfig {
  /// Via technology the layout targets. Under kTransparent the documented
  /// odd-L stacked junction vias are legal, so via-span-wide stays quiet.
  ViaRule via_rule = ViaRule::kBlocking;
  std::array<bool, kNumLintRules> enabled{};  ///< default: all on

  LintBaseline baseline;

  LintConfig() { enabled.fill(true); }

  LintConfig& disable(LintRule r) {
    enabled[static_cast<std::size_t>(r)] = false;
    return *this;
  }
};

struct LintStats {
  std::array<std::size_t, kNumLintRules> per_rule{};  ///< reported findings
  std::size_t reported = 0;    ///< findings handed to the sink
  std::size_t suppressed = 0;  ///< findings dropped by the baseline
  [[nodiscard]] bool clean() const { return reported == 0; }
};

/// Run every enabled rule over `geom` and append surviving findings to
/// `sink` (producers stop once the sink is full, as everywhere else).
LintStats lint_layout(const Graph& g, const LayoutGeometry& geom,
                      const LintConfig& cfg, DiagnosticSink& sink);

/// Stable one-line identity of a lint finding, used as the baseline key:
/// "<rule-id> edge=<e> node=<n> at=(x,y,z)" with absent fields omitted.
[[nodiscard]] std::string lint_fingerprint(const Diagnostic& d);

namespace detail {
/// Rule bodies (lint_rules.cpp) hand raw findings — location fields only —
/// to this callback; the driver (lint.cpp) stamps code/severity and applies
/// the enable/baseline policy.
using LintEmit = std::function<void(Diagnostic)>;

/// Content occupancy per row and column, plus the content extent. Clamps to
/// the declared dimensions so corrupt records cannot index out of range.
struct Occupancy {
  std::vector<bool> col, row;  ///< any geometry in column x / row y
  std::uint32_t minx = 0, maxx = 0, miny = 0, maxy = 0;
  bool any = false;

  explicit Occupancy(const LayoutGeometry& geom);
};

/// State several rules of one lint pass share, each part built on first use:
/// the node-box index (knock-knee, terminal-riser) and the row/column
/// occupancy (dead-track, bbox-slack).
class LintShared {
 public:
  explicit LintShared(const LayoutGeometry& geom) : geom_(geom) {}

  const BoxIndex& boxes();
  const Occupancy& occupancy();
  /// The box index if a rule built it, else nullptr.
  [[nodiscard]] const BoxIndex* built_boxes() const {
    return boxes_ ? &*boxes_ : nullptr;
  }

 private:
  const LayoutGeometry& geom_;
  std::optional<BoxIndex> boxes_;
  std::optional<Occupancy> occupancy_;
};

void run_lint_rule(LintRule r, const Graph& g, const LayoutGeometry& geom,
                   const LintConfig& cfg, LintShared& shared,
                   const LintEmit& emit);
}  // namespace detail

}  // namespace mlvl::analysis
