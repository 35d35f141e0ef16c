// Public request/result facade over the full layout pipeline.
//
// A `LayoutRequest` names a family (canonical or not — it is canonicalized
// here), the realize options, and whether to run the geometric checker
// (always under the realized layout's own required via rule);
// `run_layout` executes the whole pipeline — topology + collinear factors +
// placement + interval assignment (inside the family build), multilayer
// realization, verification, metrics — and returns everything a caller
// reports on. Option validation happens at this boundary: L outside
// [2, 1024] is a structured kSpecBadLayerCount diagnostic, never a silent
// std::atoi zero fed into realize().
//
// The batch engine reuses the `Orthogonal2Layer` overload to realize one
// cached topology at many layer counts. A budget is the caller's: the
// engine installs a CancelScope around the call, and a CancelledError
// from a pipeline checkpoint propagates out of run_layout for it to
// classify.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/registry.hpp"
#include "core/checker.hpp"
#include "core/metrics.hpp"
#include "core/multilayer.hpp"

namespace mlvl::api {

struct LayoutRequest {
  FamilySpec spec;
  RealizeOptions options{};  ///< options.L validated to [2, 1024]
  bool check = true;         ///< run the geometric checker
};

struct LayoutResult {
  bool ok = false;
  std::string error;          ///< first failure; empty when ok
  FamilySpec spec;            ///< canonical spec actually laid out
  MultilayerLayout layout;
  LayoutMetrics metrics;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  /// Full checker report (default-initialized if unchecked).
  CheckReport check_report;
};

/// Validate realize options at the API boundary. Reports kSpecBadLayerCount
/// to `sink` (may be null) and returns false when L is outside [2, 1024].
[[nodiscard]] bool validate_options(const RealizeOptions& opt,
                                    DiagnosticSink* sink = nullptr);

/// Full pipeline for one request; family resolution through the registry.
/// Failures (bad spec, bad options, checker rejection) come back in the
/// result and, for spec/option problems, as structured diagnostics on `sink`.
[[nodiscard]] LayoutResult run_layout(const LayoutRequest& req,
                                      DiagnosticSink* sink = nullptr);

/// Same pipeline from an already-built orthogonal layout (the batch engine's
/// cache-hit path). `req.spec` is carried through for reporting only.
[[nodiscard]] LayoutResult run_layout(const Orthogonal2Layer& ortho,
                                      const LayoutRequest& req,
                                      DiagnosticSink* sink = nullptr);

}  // namespace mlvl::api
