#include "api/layout_api.hpp"

namespace mlvl::api {
namespace {

constexpr std::uint32_t kMaxLayers = 1024;

LayoutResult fail(const FamilySpec& spec, std::string error) {
  LayoutResult r;
  r.spec = spec;
  r.error = std::move(error);
  return r;
}

/// One-line description of the first diagnostic, for LayoutResult::error.
std::string first_error(const DiagnosticSink& sink, const char* fallback) {
  return sink.first() != nullptr ? sink.first()->to_string()
                                 : std::string(fallback);
}

}  // namespace

bool validate_options(const RealizeOptions& opt, DiagnosticSink* sink) {
  if (opt.L >= 2 && opt.L <= kMaxLayers) return true;
  if (sink != nullptr) {
    Diagnostic d;
    d.code = Code::kSpecBadLayerCount;
    d.severity = Severity::kError;
    d.detail = "L = " + std::to_string(opt.L);
    sink->report(std::move(d));
  }
  return false;
}

LayoutResult run_layout(const LayoutRequest& req, DiagnosticSink* sink) {
  DiagnosticSink local(16);
  DiagnosticSink& diags = sink != nullptr ? *sink : local;
  if (!validate_options(req.options, &diags))
    return fail(req.spec, first_error(diags, "bad realize options"));

  std::optional<FamilySpec> canon =
      FamilyRegistry::instance().canonicalize(req.spec, &diags);
  if (!canon) return fail(req.spec, first_error(diags, "bad family spec"));

  std::optional<Orthogonal2Layer> ortho =
      FamilyRegistry::instance().build(*canon, &diags);
  if (!ortho) return fail(*canon, first_error(diags, "family build failed"));

  LayoutRequest resolved = req;
  resolved.spec = std::move(*canon);
  return run_layout(*ortho, resolved, sink);
}

LayoutResult run_layout(const Orthogonal2Layer& ortho,
                        const LayoutRequest& req, DiagnosticSink* sink) {
  DiagnosticSink probe(1);
  if (!validate_options(req.options, &probe)) {
    if (sink != nullptr && probe.first() != nullptr)
      sink->report(*probe.first());
    return fail(req.spec, first_error(probe, "bad realize options"));
  }

  LayoutResult r;
  r.spec = req.spec;
  r.nodes = ortho.graph.num_nodes();
  r.edges = ortho.graph.num_edges();
  r.layout = realize(ortho, req.options);
  if (req.check) {
    Checker checker(ortho.graph, r.layout.geom,
                    {.via_rule = r.layout.required_rule});
    r.check_report = checker.check();
    if (!r.check_report.ok) {
      r.error = r.check_report.error;
      return r;
    }
  }
  r.metrics = compute_metrics(r.layout, ortho.graph);
  r.ok = true;
  return r;
}

}  // namespace mlvl::api
