// Registry, configuration, baseline handling and the lint driver. The rule
// bodies live in lint_rules.cpp; this file owns everything rule-agnostic.
#include "analysis/lint.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mlvl::analysis {
namespace {

using detail::LintEmit;

/// One registry entry from its trace span `lint.<id>`: the id is the span
/// past its "lint." prefix, so the two cannot drift apart.
constexpr LintRuleInfo rule(LintRule r, Code code, const char* span,
                            const char* what) {
  return {r, code, span + 5, span, what};
}

constexpr LintRuleInfo kRegistry[] = {
    rule(LintRule::kLayerParity, Code::kLintLayerParity, "lint.layer-parity",
         "horizontal runs ride odd layers, vertical runs even layers"),
    rule(LintRule::kTurnViaGroup, Code::kLintTurnViaGroup,
         "lint.turn-via-group",
         "turn vias pair the two layers of one group g (2g+1 <-> 2g+2)"),
    rule(LintRule::kViaSpanWide, Code::kLintViaSpanWide, "lint.via-span-wide",
         "turn vias span one boundary under the strict grid model"),
    rule(LintRule::kThompsonKnockKnee, Code::kLintKnockKnee,
         "lint.thompson-knock-knee",
         "no two edges bend at one grid point in an L=2 layout"),
    rule(LintRule::kTerminalRiserOfftrack, Code::kLintTerminalRiser,
         "lint.terminal-riser-offtrack",
         "terminal risers land on a node box perimeter terminal"),
    rule(LintRule::kZeroLengthSeg, Code::kLintZeroLengthSeg,
         "lint.zero-length-seg", "no degenerate single-point segments"),
    rule(LintRule::kMergeableRuns, Code::kLintMergeableRuns,
         "lint.mergeable-runs",
         "no adjacent collinear same-edge same-layer runs"),
    rule(LintRule::kRedundantVia, Code::kLintRedundantVia, "lint.redundant-via",
         "no overlapping same-edge via columns at one (x, y)"),
    rule(LintRule::kDeadTrack, Code::kLintDeadTrack, "lint.dead-track",
         "no fully unused row or column inside the content box"),
    rule(LintRule::kBboxSlack, Code::kLintBboxSlack, "lint.bbox-slack",
         "the declared bounding box is tight to the content"),
};

static_assert(std::size(kRegistry) == kNumLintRules,
              "registry must cover every LintRule");

}  // namespace

std::span<const LintRuleInfo> lint_registry() { return kRegistry; }

std::optional<LintRule> lint_rule_from_id(std::string_view id) {
  for (const LintRuleInfo& info : kRegistry)
    if (id == info.id) return info.rule;
  return std::nullopt;
}

std::string lint_fingerprint(const Diagnostic& d) {
  std::string fp = code_name(d.code);
  if (d.edge != kNoId) fp += " edge=" + std::to_string(d.edge);
  if (d.edge2 != kNoId) fp += " edge2=" + std::to_string(d.edge2);
  if (d.node != kNoId) fp += " node=" + std::to_string(d.node);
  if (d.has_point)
    fp += " at=(" + std::to_string(d.x) + "," + std::to_string(d.y) + "," +
          std::to_string(d.layer) + ")";
  return fp;
}

LintBaseline LintBaseline::parse(std::istream& is) {
  LintBaseline b;
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    // Trim surrounding whitespace.
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const std::size_t last = line.find_last_not_of(" \t\r");
    b.add(line.substr(first, last - first + 1));
  }
  return b;
}

std::optional<LintBaseline> LintBaseline::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  return parse(is);
}

void LintBaseline::add(std::string fingerprint) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), fingerprint);
  if (it != entries_.end() && *it == fingerprint) return;
  entries_.insert(it, std::move(fingerprint));
}

bool LintBaseline::suppresses(const Diagnostic& d) const {
  if (entries_.empty()) return false;
  auto has = [&](const std::string& key) {
    return std::binary_search(entries_.begin(), entries_.end(), key);
  };
  return has(std::string(code_name(d.code)) + " *") ||
         has(lint_fingerprint(d));
}

void LintBaseline::write(std::ostream& os) const {
  os << "# mlvl-lint suppression baseline: one fingerprint per line;\n"
     << "# \"<rule-id> *\" suppresses a whole rule. '#' starts a comment.\n";
  for (const std::string& e : entries_) os << e << "\n";
}

LintStats lint_layout(const Graph& g, const LayoutGeometry& geom,
                      const LintConfig& cfg, DiagnosticSink& sink) {
  obs::Span span("lint");
  LintStats stats;
  detail::LintShared shared(geom);
  const std::size_t records =
      geom.boxes.size() + geom.segs.size() + geom.vias.size();
  for (const LintRuleInfo& info : kRegistry) {
    const std::size_t idx = static_cast<std::size_t>(info.rule);
    if (!cfg.enabled[idx]) continue;
    if (sink.full()) break;
    obs::Span rule_span(info.span);
    rule_span.arg("records", records);
    const LintEmit emit = [&](Diagnostic d) {
      d.code = info.code;
      d.severity = Severity::kWarning;
      if (cfg.baseline.suppresses(d)) {
        ++stats.suppressed;
        return;
      }
      if (sink.report(std::move(d))) {
        ++stats.per_rule[idx];
        ++stats.reported;
      }
    };
    detail::run_lint_rule(info.rule, g, geom, cfg, shared, emit);
    rule_span.arg("findings", stats.per_rule[idx]);
  }
  if (const BoxIndex* boxes = shared.built_boxes()) {
    obs::counter_add("lint.index.built", boxes->built());
    obs::counter_add("lint.index.probes", boxes->probes());
  }
  obs::counter_add("lint.findings", stats.reported);
  obs::counter_add("lint.suppressed", stats.suppressed);
  return stats;
}

}  // namespace mlvl::analysis
