#include "core/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <streambuf>
#include <string>

#include "core/checker.hpp"
#include "core/multilayer.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"

namespace mlvl {
namespace {

std::optional<io::LoadedLayout> parse(const Graph& g,
                                      const LayoutGeometry& geom) {
  std::stringstream ss;
  io::write_graph(ss, g);
  io::write_geometry(ss, geom);
  return io::parse_layout(ss);
}

std::optional<io::LoadedLayout> parse(const std::string& text) {
  std::istringstream ss(text);
  return io::parse_layout(ss);
}

TEST(Io, GraphRoundTrip) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(3, 4);
  g.add_edge(1, 4);
  auto back = parse(g, LayoutGeometry{});
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->graph.num_nodes(), 5u);
  ASSERT_EQ(back->graph.num_edges(), 3u);
  for (EdgeId e = 0; e < 3; ++e) EXPECT_EQ(back->graph.edge(e), g.edge(e));
}

TEST(Io, GeometryRoundTrip) {
  LayoutGeometry geom;
  geom.width = 30;
  geom.height = 20;
  geom.num_layers = 6;
  geom.boxes = {{1, 2, 3, 3, 0, 1}, {10, 2, 3, 3, 1, 5}};
  geom.segs = {{1, 1, 9, 1, 3, 0}, {4, 0, 4, 9, 2, 1}};
  geom.vias = {{4, 0, 1, 2, 1}};
  auto back = parse(Graph(2), geom);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->geom.width, 30u);
  EXPECT_EQ(back->geom.num_layers, 6u);
  ASSERT_EQ(back->geom.boxes.size(), 2u);
  EXPECT_EQ(back->geom.boxes[1].layer, 5u);
  ASSERT_EQ(back->geom.segs.size(), 2u);
  EXPECT_EQ(back->geom.segs[0].x2, 9u);
  ASSERT_EQ(back->geom.vias.size(), 1u);
  EXPECT_EQ(back->geom.vias[0].z2, 2u);
}

TEST(Io, FullLayoutRoundTripStaysValid) {
  Orthogonal2Layer o = layout::layout_kary(3, 2);
  MultilayerLayout ml = realize(o, {.L = 4});
  const std::string path = testing::TempDir() + "/mlvl_io_test.txt";
  ASSERT_TRUE(io::save_layout(path, o.graph, ml.geom));
  auto loaded = io::load_layout(path);
  ASSERT_TRUE(loaded.has_value());
  // The reloaded layout must still pass the full geometric checker.
  CheckReport res = Checker(loaded->graph, loaded->geom).check();
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(loaded->geom.segs.size(), ml.geom.segs.size());
  EXPECT_EQ(loaded->geom.vias.size(), ml.geom.vias.size());
}

// A valid geometry section, appended to graph text so that only the graph
// section can fail.
constexpr const char* kGeom = "mlvl-geom 1\ndims 4 4 2\n";

/// Parses `graph_text` + kGeom; expects one diagnostic with `code` at `line`.
void expect_graph_error(const std::string& graph_text, Code code,
                        std::uint32_t line) {
  SCOPED_TRACE(graph_text);
  std::istringstream ss(graph_text + kGeom);
  DiagnosticSink sink;
  EXPECT_FALSE(io::parse_layout(ss, &sink).has_value());
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.first()->code, code);
  EXPECT_EQ(sink.first()->line, line);
}

TEST(Io, RejectsMalformedHeader) {
  ASSERT_TRUE(
      parse(std::string("mlvl-graph 1\nnodes 3\n") + kGeom).has_value());
  expect_graph_error("mlvl-graph 2\nnodes 3\n", Code::kParseBadHeader, 1);
  expect_graph_error("not-a-tag 1\n", Code::kParseBadHeader, 1);
}

TEST(Io, RejectsBadEdges) {
  ASSERT_TRUE(
      parse(std::string("mlvl-graph 1\nnodes 3\nedge 0 2\n") + kGeom)
          .has_value());
  expect_graph_error("mlvl-graph 1\nnodes 3\nedge 0 7\n",
                     Code::kParseBadValue, 3);
  expect_graph_error("mlvl-graph 1\nnodes 3\nedge 1 1\n",
                     Code::kParseBadValue, 3);
}

TEST(Io, LoadMissingFileFails) {
  EXPECT_FALSE(io::load_layout("/nonexistent/file.txt").has_value());
}

TEST(Io, ConsecutiveSectionsParse) {
  // Graph followed by a geometry section that holds only its dims.
  Graph g(2);
  g.add_edge(0, 1);
  LayoutGeometry geom;
  geom.width = 4;
  geom.height = 4;
  geom.num_layers = 2;
  auto back = parse(g, geom);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->graph.num_edges(), 1u);
  EXPECT_EQ(back->geom.width, 4u);
  EXPECT_TRUE(back->geom.segs.empty());
}

// The graph reader hands the line it does not own back to the stream; that
// must hold for CRLF endings, blank lines and a last line without '\n', and
// line numbers must stay absolute.
TEST(Io, SectionPushbackKeepsLinesAndEndings) {
  std::istringstream crlf(
      "mlvl-graph 1\r\nnodes 2\r\nedge 0 1\r\n\r\nmlvl-geom 1\r\n"
      "dims 4 4 2\r\nbox 0 0 0 1 1 1\r\nbox 1 2 2 1 1 1\r\nseg 0 0 0 2 0 1");
  auto loaded = io::parse_layout(crlf);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->geom.boxes.size(), 2u);
  ASSERT_EQ(loaded->geom.segs.size(), 1u);
  EXPECT_EQ(loaded->geom.segs[0].x2, 2u);

  // The geometry header is the last line and has no newline: it is pushed
  // back, re-read, and the missing dims are reported after it.
  std::istringstream cut("mlvl-graph 1\nnodes 2\nedge 0 1\nmlvl-geom 1");
  DiagnosticSink sink;
  EXPECT_FALSE(io::parse_layout(cut, &sink).has_value());
  ASSERT_FALSE(sink.empty());
  EXPECT_EQ(sink.first()->code, Code::kParseBadRecord);
  EXPECT_EQ(sink.first()->line, 4u);

  // A bad record after the pushback is pinned to its own line.
  std::istringstream bad(
      "mlvl-graph 1\nnodes 2\n\nedge 0 1\nmlvl-geom 1\ndims 4 4 2\n"
      "seg 0 0 0 x 0 1\n");
  DiagnosticSink bad_sink;
  EXPECT_FALSE(io::parse_layout(bad, &bad_sink).has_value());
  ASSERT_FALSE(bad_sink.empty());
  EXPECT_EQ(bad_sink.first()->line, 7u);
}

/// Pipe-like input: hands out the text a few bytes per underflow and cannot
/// seek, as `cat net.mlvl | layout_tool --doctor /dev/stdin` does.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string text) : text_(std::move(text)) {}

 protected:
  int_type underflow() override {
    if (next_ == text_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(7, text_.size() - next_);
    char* at = text_.data() + next_;
    setg(at, at, at + n);
    next_ += n;
    return traits_type::to_int_type(*at);
  }
  pos_type seekoff(off_type, std::ios_base::seekdir,
                   std::ios_base::openmode) override {
    return pos_type(off_type(-1));
  }
  pos_type seekpos(pos_type, std::ios_base::openmode) override {
    return pos_type(off_type(-1));
  }

 private:
  std::string text_;
  std::size_t next_ = 0;
};

// A pipe cannot step back, so the reader must find the graph/geometry
// boundary without seeking the stream.
TEST(Io, ParsesFromAStreamThatCannotSeek) {
  Orthogonal2Layer o = layout::layout_hypercube(4);
  MultilayerLayout ml = realize(o, {.L = 4});
  std::ostringstream os;
  io::write_graph(os, o.graph);
  io::write_geometry(os, ml.geom);

  PipeBuf pipe(os.str());
  std::istream is(&pipe);
  DiagnosticSink sink;
  auto loaded = io::parse_layout(is, &sink);
  ASSERT_TRUE(loaded.has_value()) << sink.summary();
  EXPECT_EQ(loaded->graph.num_edges(), o.graph.num_edges());
  EXPECT_EQ(loaded->geom.segs.size(), ml.geom.segs.size());
  EXPECT_EQ(loaded->geom.vias.size(), ml.geom.vias.size());
  std::ostringstream again;
  io::write_graph(again, loaded->graph);
  io::write_geometry(again, loaded->geom);
  EXPECT_EQ(again.str(), os.str());

  // A bad record is still reported on its own line.
  PipeBuf bad("mlvl-graph 1\nnodes 2\nedge 0 1\nmlvl-geom 1\n\ndims 4 4 x\n");
  std::istream bad_is(&bad);
  DiagnosticSink bad_sink;
  EXPECT_FALSE(io::parse_layout(bad_is, &bad_sink).has_value());
  ASSERT_EQ(bad_sink.size(), 1u);
  EXPECT_EQ(bad_sink.first()->code, Code::kParseBadRecord);
  EXPECT_EQ(bad_sink.first()->line, 6u);
}

// The file buffer's last bytes reach the disk only when the stream closes; a
// small layout fits in that buffer, so a full disk shows up only there.
TEST(Io, SaveFailsWhenTheFinalFlushFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Graph g(2);
  g.add_edge(0, 1);
  LayoutGeometry geom;
  geom.width = 4;
  geom.height = 4;
  EXPECT_FALSE(io::save_layout("/dev/full", g, geom));
}

}  // namespace
}  // namespace mlvl
