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

/// Convert a cooperative cancellation into a failed result + diagnostic.
LayoutResult cancelled_fail(const FamilySpec& spec, const CancelledError& ex,
                            DiagnosticSink* sink) {
  if (sink != nullptr) {
    Diagnostic d;
    d.code = Code::kJobDeadline;
    d.severity = Severity::kError;
    d.detail = ex.what();
    sink->report(std::move(d));
  }
  return fail(spec, ex.what());
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

  // The scope covers the topology build too: an expired budget stops the
  // request at the "topology" checkpoint before any expensive work.
  CancelScope scope(req.cancel);
  std::optional<Orthogonal2Layer> ortho;
  try {
    ortho = FamilyRegistry::instance().build(*canon, &diags);
  } catch (const CancelledError& ex) {
    return cancelled_fail(*canon, ex, sink);
  }
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
  CancelScope scope(req.cancel);
  try {
    r.layout = realize(ortho, req.options);
    if (req.check) {
      CheckOptions copt = req.check_options;
      copt.via_rule = r.layout.required_rule;
      Checker checker(ortho.graph, r.layout.geom, copt);
      r.check_report = checker.check();
      if (!r.check_report.ok) {
        r.error = r.check_report.error;
        return r;
      }
    }
    r.metrics = compute_metrics(r.layout, ortho.graph);
  } catch (const CancelledError& ex) {
    // Only a request-supplied token is handled here; when the caller (the
    // batch engine) installed its own scope, the unwind is its to classify.
    if (req.cancel == nullptr) throw;
    return cancelled_fail(req.spec, ex, sink);
  }
  r.ok = true;
  return r;
}

}  // namespace mlvl::api
