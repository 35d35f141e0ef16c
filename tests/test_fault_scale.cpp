// Fault injection at scale: the operators decide on records, so an inject
// call that proves no site exists costs a sort of the layout's records, not
// a scan of every record per candidate or a walk over grid points. This
// binary runs under a 10 s ctest TIMEOUT (tests/CMakeLists.txt); operators
// that scan the layout per candidate take over 20 s here.
#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/multilayer.hpp"
#include "layout/hypercube_layout.hpp"
#include "robustness/fault_injector.hpp"

namespace mlvl {
namespace {

using robustness::FaultKind;

TEST(FaultScale, Hypercube12AtTwoLayers) {
  const Orthogonal2Layer o = layout::layout_hypercube(12);
  const MultilayerLayout ml = realize(o, {.L = 2});
  ASSERT_GT(ml.geom.segs.size() + ml.geom.vias.size(), 140000u);

  // At L = 2 a run moved to the only other layer stays attached to its
  // risers, so every one of the ~10^5 candidates is tried and refused.
  LayoutGeometry geom = ml.geom;
  EXPECT_FALSE(
      robustness::inject(FaultKind::kSwapSegmentLayer, o.graph, geom, 7));

  // A run demoted onto layer 2 must find it free: the site the operator
  // picks keeps the layout checker-valid.
  const auto demoted = robustness::inject(FaultKind::kDemoteToWrongLayer,
                                          o.graph, geom, 7);
  ASSERT_TRUE(demoted);
  EXPECT_TRUE(
      Checker(o.graph, geom, {.via_rule = ml.required_rule}).check().ok)
      << demoted->note;
}

}  // namespace
}  // namespace mlvl
