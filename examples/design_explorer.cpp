// Design-space explorer: given a target node count and a layer budget, lay
// out every candidate network family of comparable size, verify, and rank by
// area / volume / max wire — the decision a chip architect would make with
// this library.
//
//   $ example_design_explorer [L] [--trace file] [--metrics file]
//
// Candidates are plain api::FamilySpec strings resolved through the family
// registry — the same specs `layout_tool sweep` accepts on the command line.
//
// exit codes: 0 all layouts valid, 1 checker failure or runtime error,
// 3 bad arguments.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "api/layout_api.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mlvl;
  std::string trace_path, metrics_path;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace" && i + 1 < argc) trace_path = argv[++i];
    else if (a == "--metrics" && i + 1 < argc) metrics_path = argv[++i];
    else if (!a.empty() && a[0] == '-') return 3;
    else pos.push_back(a);
  }
  std::uint32_t L = 8;
  if (!pos.empty()) {
    std::optional<std::uint64_t> v = api::parse_uint(pos[0]);
    if (!v || *v > 1024) {
      std::cerr << "design_explorer: L '" << pos[0]
                << "' is not a layer count\n";
      return 3;
    }
    L = static_cast<std::uint32_t>(*v);
  }
  {
    DiagnosticSink sink(4);
    if (!api::validate_options({.L = L}, &sink)) {
      std::cerr << "design_explorer: " << sink.first()->to_string() << "\n";
      return 3;
    }
  }

  obs::TraceSession trace;
  obs::MetricsRegistry registry;
  if (!trace_path.empty() || !metrics_path.empty()) {
    trace.install();
    registry.install();
  }

  struct Candidate {
    std::string name;
    std::string spec;
  };
  // Candidates in the ~64..384 node range (different families cannot hit the
  // same N exactly; report per-node-normalized costs too).
  const std::vector<Candidate> candidates = {
      {"hypercube n=8 (N=256)", "hypercube(n=8)"},
      {"4-ary 4-cube (N=256)", "kary(k=4,n=4)"},
      {"16-ary 2-cube (N=256)", "kary(k=16,n=2)"},
      {"GHC r=16 n=2 (N=256)", "ghc(r=16,n=2)"},
      {"folded hypercube n=8", "folded(n=8)"},
      {"CCC n=5 (N=160)", "ccc(n=5)"},
      {"HSN l=2 r=16 (N=256)", "hsn(levels=2,r=16)"},
      {"butterfly k=6 (N=384)", "butterfly(k=6)"},
  };

  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  std::cout << "Design-space exploration at L=" << L << " wiring layers\n";
  analysis::Table t({"network", "N", "degree", "area", "area/N^2*1e3",
                     "volume", "max_wire", "checker"});
  for (const Candidate& c : candidates) {
    DiagnosticSink sink(8);
    std::optional<api::FamilySpec> spec = reg.parse(c.spec, &sink);
    std::optional<Orthogonal2Layer> ortho;
    if (spec) ortho = reg.build(*spec, &sink);
    if (!ortho) {
      for (const Diagnostic& d : sink.diagnostics())
        std::cerr << "design_explorer: " << d.to_string() << "\n";
      return 1;
    }
    api::LayoutRequest req;
    req.spec = *spec;
    req.options = {.L = L};
    api::LayoutResult res = api::run_layout(*ortho, req);
    if (!res.ok) {
      std::cerr << "design_explorer: " << c.spec << ": " << res.error << "\n";
      return 1;
    }
    const double n2 = double(res.nodes) * double(res.nodes);
    t.begin_row().cell(c.name).cell(res.nodes)
        .cell(std::uint64_t(ortho->graph.max_degree())).cell(res.metrics.area)
        .cell(double(res.metrics.area) / n2 * 1e3, 2).cell(res.metrics.volume)
        .cell(std::uint64_t(res.metrics.max_wire_length))
        .cell("ok");
  }
  t.print(std::cout);
  std::cout << "\narea/N^2 normalizes families of different sizes; lower is "
               "denser. Low-degree networks (CCC) trade diameter for area "
               "exactly as the paper's Sec. 5.2 predicts.\n";

  obs::TraceSession::uninstall();
  obs::MetricsRegistry::uninstall();
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (os) trace.write_chrome_trace(os);
    if (!os) {
      std::cerr << "failed to write " << trace_path << "\n";
      return 1;
    }
    std::cout << "wrote trace " << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    if (os) registry.write_json(os);
    if (!os) {
      std::cerr << "failed to write " << metrics_path << "\n";
      return 1;
    }
    std::cout << "wrote metrics " << metrics_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& ex) {
    std::cerr << "error: invalid argument: " << ex.what() << "\n";
    return 3;
  } catch (const std::bad_alloc&) {
    std::cerr << "error: out of memory\n";
    return 1;
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }
}
