// Differential proof of the chunk writer and the in-memory field scanner
// against the stream-at-a-time reference (io_oracle.hpp). The writer must
// emit byte-identical text for every registered family at four layer counts
// and for records at the ends of their field ranges; the reader must accept
// and reject the same seeded mutations of real layout text, with the same
// parsed layout and the same diagnostics (code, line, detail).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "core/io.hpp"
#include "core/multilayer.hpp"
#include "io_oracle.hpp"
#include "layout/hypercube_layout.hpp"
#include "layout/kary_layout.hpp"

namespace mlvl {
namespace {

constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint16_t kLayerMax = std::numeric_limits<std::uint16_t>::max();

std::string new_text(const Graph& g, const LayoutGeometry& geom) {
  std::ostringstream os;
  io::write_graph(os, g);
  io::write_geometry(os, geom);
  return std::move(os).str();
}

std::string oracle_text(const Graph& g, const LayoutGeometry& geom) {
  std::ostringstream os;
  oracle::write_graph(os, g);
  oracle::write_geometry(os, geom);
  return std::move(os).str();
}

// ---- Writer ----------------------------------------------------------------

TEST(IoOracle, EveryFamilyWritesIdenticalText) {
  const api::FamilyRegistry& reg = api::FamilyRegistry::instance();
  int layouts = 0;
  for (const api::Family* f : reg.families()) {
    const std::optional<api::FamilySpec> spec = reg.parse(f->sample);
    ASSERT_TRUE(spec.has_value()) << f->sample;
    const Orthogonal2Layer o = f->build(*spec);
    for (std::uint32_t L : {2u, 3u, 8u, 64u}) {
      const MultilayerLayout ml = realize(o, {.L = L});
      const std::string got = new_text(o.graph, ml.geom);
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got, oracle_text(o.graph, ml.geom))
          << f->sample << " L=" << L;
      ++layouts;
    }
  }
  EXPECT_EQ(layouts, 4 * static_cast<int>(reg.size()));
}

TEST(IoOracle, FieldRangeEndsWriteIdenticalText) {
  Graph g(kU32Max);
  g.add_edge(0, kU32Max - 1);
  g.add_edge(kU32Max - 1, 1);
  LayoutGeometry geom;
  geom.width = kU32Max;
  geom.height = 0;
  geom.num_layers = kLayerMax;
  geom.boxes = {{kU32Max, kU32Max, kU32Max, kU32Max, kU32Max, kLayerMax},
                {0, 0, 0, 0, 0, 0}};
  geom.segs = {{kU32Max, 0, kU32Max, kU32Max, kLayerMax, kU32Max},
               {0, 0, 0, 0, 0, 0}};
  geom.vias = {{kU32Max, kU32Max, kLayerMax, kLayerMax, kU32Max},
               {0, 0, 0, 0, 0}};
  // Enough maximal records to cross many chunk boundaries.
  for (std::uint32_t i = 0; i < 2000; ++i)
    geom.segs.push_back(
        {kU32Max - i, i, kU32Max, i, kLayerMax, i * 2654435761u});
  const std::string got = new_text(g, geom);
  EXPECT_EQ(got, oracle_text(g, geom));
  EXPECT_NE(
      got.find("seg 4294967295 4294967295 0 4294967295 4294967295 65535\n"),
      std::string::npos);

  // Empty sections too.
  EXPECT_EQ(new_text(Graph(0), LayoutGeometry{}),
            oracle_text(Graph(0), LayoutGeometry{}));
}

/// Output that takes the first `room` bytes and then fails, like a disk
/// that fills up.
class FullBuf : public std::streambuf {
 public:
  explicit FullBuf(std::size_t room) : room_(room) {}

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    const std::streamsize took = std::min<std::streamsize>(
        n, static_cast<std::streamsize>(room_));
    room_ -= static_cast<std::size_t>(took);
    return took;
  }
  int_type overflow(int_type c) override {
    if (room_ == 0) return traits_type::eof();
    --room_;
    return traits_type::not_eof(c);
  }

 private:
  std::size_t room_;
};

TEST(IoOracle, FailingStreamGetsBadbitLikeTheOracle) {
  const Orthogonal2Layer o = layout::layout_hypercube(6);
  const MultilayerLayout ml = realize(o, {.L = 2});
  const std::size_t size = new_text(o.graph, ml.geom).size();
  ASSERT_GT(size, 8192u);  // more than one chunk
  for (std::size_t room : {std::size_t{0}, std::size_t{100}, size / 2,
                           size - 1, size}) {
    FullBuf new_buf(room), old_buf(room);
    std::ostream new_os(&new_buf), old_os(&old_buf);
    io::write_graph(new_os, o.graph);
    io::write_geometry(new_os, ml.geom);
    oracle::write_graph(old_os, o.graph);
    oracle::write_geometry(old_os, ml.geom);
    EXPECT_EQ(new_os.bad(), old_os.bad()) << "room " << room;
    EXPECT_EQ(new_os.bad(), room < size) << "room " << room;
  }
}

// ---- Reader ----------------------------------------------------------------

std::string fields(const DiagnosticSink& sink) {
  std::string out;
  for (const Diagnostic& d : sink.diagnostics())
    out += std::string(code_name(d.code)) + "@" + std::to_string(d.line) +
           ":" + d.detail + "\n";
  return out;
}

/// Everything a whole-layout parse produced: verdict, layout text and
/// diagnostics.
std::string whole(const std::string& text, bool use_oracle) {
  std::istringstream is(text);
  DiagnosticSink sink(64);
  const std::optional<io::LoadedLayout> l =
      use_oracle ? oracle::parse_layout(is, &sink)
                 : io::parse_layout(is, &sink);
  return (l ? "ok\n" + oracle_text(l->graph, l->geom) : "rejected\n") +
         fields(sink);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t nl = text.find('\n', at);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    lines.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// One seeded mutation of `text`.
std::string mutate(std::string text, std::mt19937_64& rng) {
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % std::max<std::size_t>(n, 1));
  };
  static const std::array<const char*, 24> kTokens = {
      "",    "x",          "0",          "-1",        "+1",         "-0",
      "007", "4294967296", "4294967295", "65535",     "65536",      "1e3",
      "seg", "via",        "box",        "edge",      "nodes",      "dims",
      "mlvl-graph", "mlvl-geom", "2",    "99999999999999999999", "\v", "1\x01"};
  std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) lines.push_back("");
  std::string& line = lines[pick(lines.size())];
  switch (pick(14)) {
    case 0:  // delete a line
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(pick(lines.size())));
      return join_lines(lines);
    case 1: {  // duplicate a line
      const std::size_t i = pick(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      return join_lines(lines);
    }
    case 2: {  // replace one token
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i < line.size(); ++i)
        if (line[i] != ' ' && (i == 0 || line[i - 1] == ' '))
          starts.push_back(i);
      if (starts.empty()) break;
      const std::size_t s = starts[pick(starts.size())];
      std::size_t e = line.find(' ', s);
      if (e == std::string::npos) e = line.size();
      line.replace(s, e - s, kTokens[pick(kTokens.size())]);
      return join_lines(lines);
    }
    case 3: {  // sign a number
      const std::size_t s = line.find(' ');
      if (s == std::string::npos) break;
      line.insert(s + 1, pick(2) ? "+" : "-");
      return join_lines(lines);
    }
    case 4:  // tab or extra blanks between fields
      for (char& c : line)
        if (c == ' ' && pick(2)) c = '\t';
      line = (pick(2) ? " \t" : "") + line + (pick(2) ? " \r" : "");
      return join_lines(lines);
    case 5: {  // CRLF line endings
      std::string crlf;
      for (const std::string& l : lines) crlf += l + "\r\n";
      return crlf;
    }
    case 6:  // blank line
      lines.insert(lines.begin() +
                       static_cast<std::ptrdiff_t>(pick(lines.size() + 1)),
                   pick(2) ? "" : " \t\r");
      return join_lines(lines);
    case 7:  // no final newline
      if (!text.empty() && text.back() == '\n') text.pop_back();
      return text;
    case 8: {  // trailing garbage
      static const std::array<const char*, 5> kTails = {
          "junk\n", "\n\n  x", "mlvl-graph 1\n", "edge 0 1\n", "  \t\r\n"};
      return text + kTails[pick(kTails.size())];
    }
    case 9: {  // layer 65536 or coordinate 2^32 as the last field
      const std::size_t s = line.rfind(' ');
      if (s == std::string::npos) break;
      line.replace(s + 1, std::string::npos, pick(2) ? "65536" : "4294967296");
      return join_lines(lines);
    }
    case 10: {  // cut at a byte
      text.resize(pick(text.size() + 1));
      return text;
    }
    case 11: {  // swap two lines
      const std::size_t i = pick(lines.size());
      std::swap(lines[i], lines[pick(lines.size())]);
      return join_lines(lines);
    }
    case 12: {  // one token for both of the first two fields
      std::istringstream fields(line);
      std::string tag, first, second, rest;
      fields >> tag >> first >> second;
      std::getline(fields, rest);
      const std::string t = kTokens[pick(kTokens.size())];
      line = tag + " " + t + " " + t + rest;
      return join_lines(lines);
    }
    default: {  // overwrite one byte
      if (text.empty()) break;
      static const char kBytes[] = {' ', '\t', '\r', '\n', '0',
                                    '9', 'a',  '\0', '-'};
      text[pick(text.size())] = kBytes[pick(sizeof kBytes)];
      return text;
    }
  }
  return text;
}

std::vector<std::string> base_texts() {
  std::vector<std::string> out;
  const Orthogonal2Layer h = layout::layout_hypercube(3);
  out.push_back(new_text(h.graph, realize(h, {.L = 2}).geom));
  const Orthogonal2Layer k = layout::layout_kary(3, 2);
  out.push_back(new_text(k.graph, realize(k, {.L = 3}).geom));
  Graph g(3);
  g.add_edge(0, 2);
  LayoutGeometry geom;
  geom.width = 9;
  geom.height = 4;
  geom.num_layers = 2;
  geom.boxes = {{0, 0, 1, 1, 0, 1}, {8, 0, 1, 1, 2, 1}};
  geom.segs = {{0, 0, 8, 0, 2, 0}};
  geom.vias = {{0, 0, 1, 2, 0}, {8, 0, 1, 2, 0}};
  out.push_back(new_text(g, geom));
  return out;
}

TEST(IoOracle, UnmutatedTextsParseIdentically) {
  for (const std::string& text : base_texts()) {
    const std::string got = whole(text, false);
    EXPECT_EQ(got, whole(text, true));
    EXPECT_EQ(got.rfind("ok\n" + text, 0), 0u);
  }
}

TEST(IoOracle, SeededMutationsParseIdentically) {
  const std::vector<std::string> bases = base_texts();
  int cases = 0, accepted = 0, disagreements = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    std::mt19937_64 rng(seed);
    std::string text = bases[seed % bases.size()];
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r) text = mutate(std::move(text), rng);
    ++cases;
    const std::string got = whole(text, false);
    const std::string want = whole(text, true);
    if (got.rfind("ok\n", 0) == 0) ++accepted;
    if (got != want) {
      ++disagreements;
      ADD_FAILURE() << "seed " << seed << " whole layout differs\n--- new\n"
                    << got << "--- oracle\n" << want;
    }
    if (disagreements > 5) break;
  }
  EXPECT_EQ(disagreements, 0);
  // The mutations must exercise both verdicts.
  EXPECT_GT(accepted, cases / 10);
  EXPECT_LT(accepted, cases - cases / 4);
}

}  // namespace
}  // namespace mlvl
