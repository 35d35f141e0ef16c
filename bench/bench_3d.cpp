// Experiment T-3d — the Sec. 1 / Sec. 2.2 folding statement: raising the
// wiring AND active layer counts by t and folding a Thompson layout reduces
// the area by ~t while volume and wire length stay approximately the same.
// fold_3d performs the transform geometrically; all folded layouts verify
// under the stacked-via rule.
#include <iostream>

#include "bench_util.hpp"
#include "core/fold3d.hpp"
#include "layout/ghc_layout.hpp"
#include "layout/hypercube_layout.hpp"

namespace {

using namespace mlvl;

void print_tables() {
  std::cout << "\n=== T-3d: accordion folding into L_A active layers ===\n";
  analysis::Table t({"network", "L_A", "layers", "area", "area_red",
                     "volume", "xy_wire_total", "checker"});
  struct Cfg {
    const char* name;
    Orthogonal2Layer o;
  };
  std::vector<Cfg> cfgs;
  cfgs.push_back({"hypercube n=8 (L=2 base)", layout::layout_hypercube(8)});
  cfgs.push_back({"GHC r=8 n=2 (L=2 base)", layout::layout_ghc(8, 2)});
  for (Cfg& c : cfgs) {
    MultilayerLayout ml = realize(c.o, {.L = 2});
    const std::uint64_t base_area = ml.geom.area();
    for (std::uint32_t slabs : {1u, 2u, 4u, 8u}) {
      Fold3dLayout f = fold_3d(ml, slabs);
      CheckReport res =
          Checker(c.o.graph, f.geom, {.via_rule = ViaRule::kTransparent})
              .check();
      std::uint64_t len = 0;
      for (const WireSeg& s : f.geom.segs) len += s.length();
      t.begin_row().cell(c.name).cell(std::uint64_t(slabs))
          .cell(std::uint64_t(f.geom.num_layers)).cell(f.geom.area())
          .cell(double(base_area) / f.geom.area(), 2)
          .cell(f.geom.area() * f.geom.num_layers).cell(len)
          .cell(res.ok ? "ok" : res.error);
    }
  }
  std::cout << t.str()
            << "(area / ~L_A, volume and wire length ~constant — folding "
               "buys footprint, not cost; the direct multilayer design of "
               "bench_claims buys both)\n";
}

}  // namespace

int main(int argc, char** argv) {
  mlvl::bench::parse_args(argc, argv);
  print_tables();
  return 0;
}
