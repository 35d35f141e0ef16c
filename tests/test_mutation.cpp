// Checker robustness: systematically corrupt valid geometry and confirm the
// checker rejects it. The mutations model the realistic emitter bugs the
// checker exists to catch (wrong layer, shifted track, dropped via, stolen
// terminal).
#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/multilayer.hpp"
#include "layout/ghc_layout.hpp"
#include "layout/kary_layout.hpp"

namespace mlvl {
namespace {

struct Fixture {
  Orthogonal2Layer o;
  MultilayerLayout ml;

  Fixture() : o(layout::layout_ghc(4, 2)), ml(realize(o, {.L = 4})) {
    CheckReport res =
        Checker(o.graph, ml.geom, {.via_rule = ml.required_rule}).check();
    EXPECT_TRUE(res.ok) << res.error;
  }
};

TEST(Mutation, DropASegmentDisconnects) {
  Fixture f;
  f.ml.geom.segs.erase(f.ml.geom.segs.begin() + f.ml.geom.segs.size() / 2);
  EXPECT_FALSE(Checker(f.o.graph, f.ml.geom, {.via_rule = f.ml.required_rule})
                   .check().ok);
}

TEST(Mutation, DropAViaDisconnects) {
  // A multi-boundary terminal via has no alternate path; dropping it must
  // strand the wire above the node box.
  Fixture f;
  auto it = f.ml.geom.vias.begin();
  while (it != f.ml.geom.vias.end() && it->z2 - it->z1 < 2) ++it;
  ASSERT_NE(it, f.ml.geom.vias.end());
  f.ml.geom.vias.erase(it);
  EXPECT_FALSE(Checker(f.o.graph, f.ml.geom, {.via_rule = f.ml.required_rule})
                   .check().ok);
}

TEST(Mutation, RelabelSegmentEdgeCollides) {
  // Attributing a segment to a different edge both collides at junctions
  // and disconnects the original edge.
  Fixture f;
  WireSeg& s = f.ml.geom.segs.front();
  s.edge = (s.edge + 1) % f.o.graph.num_edges();
  EXPECT_FALSE(Checker(f.o.graph, f.ml.geom, {.via_rule = f.ml.required_rule})
                   .check().ok);
}

TEST(Mutation, ShiftTrackByOneRow) {
  // Moving one long horizontal wire down a row lands it on a neighbouring
  // track (collision) or tears it off its risers (disconnection).
  Fixture f;
  for (WireSeg& s : f.ml.geom.segs) {
    if (s.horizontal() && s.length() > 4) {
      ++s.y1;
      ++s.y2;
      break;
    }
  }
  EXPECT_FALSE(Checker(f.o.graph, f.ml.geom, {.via_rule = f.ml.required_rule})
                   .check().ok);
}

TEST(Mutation, WrongLayerBreaksConnectivity) {
  Fixture f;
  for (WireSeg& s : f.ml.geom.segs) {
    if (s.horizontal() && s.length() > 4) {
      s.layer = static_cast<std::uint16_t>(s.layer == 1 ? 3 : 1);
      break;
    }
  }
  EXPECT_FALSE(Checker(f.o.graph, f.ml.geom, {.via_rule = f.ml.required_rule})
                   .check().ok);
}

TEST(Mutation, StealTerminalBox) {
  // Swapping two node boxes makes wires end at the wrong processors.
  Fixture f;
  std::swap(f.ml.geom.boxes[0].node, f.ml.geom.boxes[1].node);
  EXPECT_FALSE(Checker(f.o.graph, f.ml.geom, {.via_rule = f.ml.required_rule})
                   .check().ok);
}

TEST(Mutation, ShrinkBoundingBoxRejected) {
  Fixture f;
  f.ml.geom.width /= 2;
  EXPECT_FALSE(Checker(f.o.graph, f.ml.geom, {.via_rule = f.ml.required_rule})
                   .check().ok);
}

TEST(Mutation, ViaSpanTruncated) {
  // Cutting a terminal via short strands the wire above the node.
  Fixture f;
  bool mutated = false;
  for (Via& v : f.ml.geom.vias) {
    if (v.z1 == 1 && v.z2 > 2) {
      ++v.z1;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  EXPECT_FALSE(Checker(f.o.graph, f.ml.geom, {.via_rule = f.ml.required_rule})
                   .check().ok);
}

TEST(Mutation, SweepManySingleSegmentDeletions) {
  // Deleting a segment almost always breaks the layout. (A few short risers
  // are genuinely redundant: when a track sits directly above the node row,
  // the terminal via column doubles as the connection — the checker is
  // right to accept those, so assert a high catch rate, not 100%.)
  Fixture f;
  const std::size_t step = std::max<std::size_t>(1, f.ml.geom.segs.size() / 40);
  std::size_t total = 0, caught = 0;
  for (std::size_t i = 0; i < f.ml.geom.segs.size(); i += step) {
    MultilayerLayout copy = f.ml;
    copy.geom.segs.erase(copy.geom.segs.begin() + i);
    ++total;
    if (!Checker(f.o.graph, copy.geom, {.via_rule = copy.required_rule})
             .check()
             .ok)
      ++caught;
  }
  EXPECT_GE(caught * 10, total * 7) << caught << "/" << total;
  // Deleting any LONG segment (a real track run) must always be caught.
  for (std::size_t i = 0; i < f.ml.geom.segs.size(); ++i) {
    if (f.ml.geom.segs[i].length() < 5) continue;
    MultilayerLayout copy = f.ml;
    copy.geom.segs.erase(copy.geom.segs.begin() + i);
    EXPECT_FALSE(Checker(f.o.graph, copy.geom, {.via_rule = copy.required_rule})
                     .check().ok) << "long segment " << i;
    i += 7;  // sample
  }
}

}  // namespace
}  // namespace mlvl
