// Stream-at-a-time reference mlvl v1 text I/O (see io_oracle.hpp). The code
// below is the writer and reader as they stood before the chunk writer and
// the in-memory field scanner replaced them.
#include "io_oracle.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mlvl::oracle {
namespace {

// Line-oriented scanner with one-line pushback, so a reader can stop at the
// first tag it does not own and leave the stream (and the line count) for the
// next section. The current line and its tokens live in reused buffers, so
// scanning allocates nothing per line; unread() steps the stream back over
// the line by a relative seek, which both file and string streams provide.
struct Scanner {
  std::istream& is;
  std::uint32_t line;
  std::string text{};                  ///< the current line
  std::vector<std::string_view> tk{};  ///< its whitespace-separated tokens
  bool newline = false;                ///< the current line ended in '\n'

  bool next() {
    if (!std::getline(is, text)) return false;
    newline = !is.eof();
    ++line;
    tokenize();
    return true;
  }
  void unread() {
    is.clear();
    is.seekg(-static_cast<std::streamoff>(text.size() + (newline ? 1 : 0)),
             std::ios::cur);
    --line;
  }

 private:
  void tokenize() {
    tk.clear();
    const std::string_view s = text;
    auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
    std::size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && blank(s[i])) ++i;
      std::size_t j = i;
      while (j < s.size() && !blank(s[j])) ++j;
      if (j > i) tk.push_back(s.substr(i, j - i));
      i = j;
    }
  }
};

template <typename U>
bool parse_uint(std::string_view t, U& out) {
  auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), out);
  return ec == std::errc{} && p == t.data() + t.size();
}

void report(DiagnosticSink* sink, Code code, std::uint32_t line,
            std::string detail) {
  if (sink)
    sink->report({.code = code, .line = line, .detail = std::move(detail)});
}

void sync_line(std::uint32_t* line_io, const Scanner& sc) {
  if (line_io) *line_io = sc.line;
}

}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  os << "mlvl-graph 1\n";
  os << "nodes " << g.num_nodes() << "\n";
  for (const Edge& e : g.edges()) os << "edge " << e.u << " " << e.v << "\n";
}

void write_geometry(std::ostream& os, const LayoutGeometry& geom) {
  os << "mlvl-geom 1\n";
  os << "dims " << geom.width << " " << geom.height << " " << geom.num_layers
     << "\n";
  for (const NodeBox& b : geom.boxes)
    os << "box " << b.node << " " << b.x << " " << b.y << " " << b.w << " "
       << b.h << " " << b.layer << "\n";
  for (const WireSeg& s : geom.segs)
    os << "seg " << s.edge << " " << s.x1 << " " << s.y1 << " " << s.x2 << " "
       << s.y2 << " " << s.layer << "\n";
  for (const Via& v : geom.vias)
    os << "via " << v.edge << " " << v.x << " " << v.y << " " << v.z1 << " "
       << v.z2 << "\n";
}

std::optional<Graph> read_graph(std::istream& is, DiagnosticSink* sink,
                                std::uint32_t* line_io) {
  Scanner sc{is, line_io ? *line_io : 0};
  const std::string& ln = sc.text;
  const std::vector<std::string_view>& tk = sc.tk;
  do {  // header, skipping blank lines
    if (!sc.next()) {
      report(sink, Code::kParseBadHeader, sc.line, "missing mlvl-graph header");
      sync_line(line_io, sc);
      return std::nullopt;
    }
  } while (tk.empty());
  if (tk.size() != 2 || tk[0] != "mlvl-graph" || tk[1] != "1") {
    report(sink, Code::kParseBadHeader, sc.line,
           "expected 'mlvl-graph 1', got '" + ln + "'");
    sync_line(line_io, sc);
    return std::nullopt;
  }

  NodeId n = 0;
  do {
    if (!sc.next()) {
      report(sink, Code::kParseBadRecord, sc.line, "missing 'nodes' record");
      sync_line(line_io, sc);
      return std::nullopt;
    }
  } while (tk.empty());
  if (tk.size() != 2 || tk[0] != "nodes" || !parse_uint(tk[1], n)) {
    report(sink, Code::kParseBadRecord, sc.line,
           "expected 'nodes <N>', got '" + ln + "'");
    sync_line(line_io, sc);
    return std::nullopt;
  }

  Graph g(n);
  while (sc.next()) {
    if (tk.empty()) continue;
    if (tk[0] != "edge") {
      sc.unread();
      break;
    }
    NodeId u = 0, v = 0;
    if (tk.size() != 3 || !parse_uint(tk[1], u) || !parse_uint(tk[2], v)) {
      report(sink, Code::kParseBadRecord, sc.line,
             "expected 'edge <u> <v>', got '" + ln + "'");
      sync_line(line_io, sc);
      return std::nullopt;
    }
    if (u == v) {
      report(sink, Code::kParseBadValue, sc.line,
             "self-loop at node " + std::string(tk[1]));
      sync_line(line_io, sc);
      return std::nullopt;
    }
    if (u >= n || v >= n) {
      report(sink, Code::kParseBadValue, sc.line,
             "edge endpoint beyond " + std::to_string(n) + " nodes");
      sync_line(line_io, sc);
      return std::nullopt;
    }
    g.add_edge(u, v);
  }
  is.clear();
  sync_line(line_io, sc);
  return g;
}

std::optional<LayoutGeometry> read_geometry(std::istream& is,
                                            DiagnosticSink* sink,
                                            std::uint32_t* line_io) {
  Scanner sc{is, line_io ? *line_io : 0};
  const std::string& ln = sc.text;
  const std::vector<std::string_view>& tk = sc.tk;
  do {
    if (!sc.next()) {
      report(sink, Code::kParseBadHeader, sc.line, "missing mlvl-geom header");
      sync_line(line_io, sc);
      return std::nullopt;
    }
  } while (tk.empty());
  if (tk.size() != 2 || tk[0] != "mlvl-geom" || tk[1] != "1") {
    report(sink, Code::kParseBadHeader, sc.line,
           "expected 'mlvl-geom 1', got '" + ln + "'");
    sync_line(line_io, sc);
    return std::nullopt;
  }

  LayoutGeometry geom;
  std::uint32_t layers = 0;
  do {
    if (!sc.next()) {
      report(sink, Code::kParseBadRecord, sc.line, "missing 'dims' record");
      sync_line(line_io, sc);
      return std::nullopt;
    }
  } while (tk.empty());
  if (tk.size() != 4 || tk[0] != "dims" || !parse_uint(tk[1], geom.width) ||
      !parse_uint(tk[2], geom.height) || !parse_uint(tk[3], layers)) {
    report(sink, Code::kParseBadRecord, sc.line,
           "expected 'dims <w> <h> <layers>', got '" + ln + "'");
    sync_line(line_io, sc);
    return std::nullopt;
  }
  if (layers > std::numeric_limits<std::uint16_t>::max()) {
    report(sink, Code::kParseBadValue, sc.line,
           "layer count " + std::string(tk[3]) + " exceeds 65535");
    sync_line(line_io, sc);
    return std::nullopt;
  }
  geom.num_layers = static_cast<std::uint16_t>(layers);

  auto bad_record = [&](const char* want) {
    report(sink, Code::kParseBadRecord, sc.line,
           std::string("expected '") + want + "', got '" + ln + "'");
    sync_line(line_io, sc);
  };
  auto layer_field = [&](std::string_view t, std::uint16_t& out) {
    std::uint32_t v = 0;
    if (!parse_uint(t, v) || v > std::numeric_limits<std::uint16_t>::max())
      return false;
    out = static_cast<std::uint16_t>(v);
    return true;
  };

  while (sc.next()) {
    if (tk.empty()) continue;
    if (tk[0] == "box") {
      NodeBox b;
      if (tk.size() != 7 || !parse_uint(tk[1], b.node) ||
          !parse_uint(tk[2], b.x) || !parse_uint(tk[3], b.y) ||
          !parse_uint(tk[4], b.w) || !parse_uint(tk[5], b.h) ||
          !layer_field(tk[6], b.layer)) {
        bad_record("box <node> <x> <y> <w> <h> <layer>");
        return std::nullopt;
      }
      geom.boxes.push_back(b);
    } else if (tk[0] == "seg") {
      WireSeg s;
      if (tk.size() != 7 || !parse_uint(tk[1], s.edge) ||
          !parse_uint(tk[2], s.x1) || !parse_uint(tk[3], s.y1) ||
          !parse_uint(tk[4], s.x2) || !parse_uint(tk[5], s.y2) ||
          !layer_field(tk[6], s.layer)) {
        bad_record("seg <edge> <x1> <y1> <x2> <y2> <layer>");
        return std::nullopt;
      }
      geom.segs.push_back(s);
    } else if (tk[0] == "via") {
      Via v;
      if (tk.size() != 6 || !parse_uint(tk[1], v.edge) ||
          !parse_uint(tk[2], v.x) || !parse_uint(tk[3], v.y) ||
          !layer_field(tk[4], v.z1) || !layer_field(tk[5], v.z2)) {
        bad_record("via <edge> <x> <y> <z1> <z2>");
        return std::nullopt;
      }
      geom.vias.push_back(v);
    } else {
      sc.unread();
      break;
    }
  }
  is.clear();
  sync_line(line_io, sc);
  return geom;
}

std::optional<io::LoadedLayout> parse_layout(std::istream& is,
                                             DiagnosticSink* sink) {
  std::uint32_t line = 0;
  auto g = read_graph(is, sink, &line);
  if (!g) return std::nullopt;
  auto geom = read_geometry(is, sink, &line);
  if (!geom) return std::nullopt;
  // A valid layout owns the rest of the stream: anything non-blank after the
  // geometry block is a corruption signal, not an extension point.
  std::string ln;
  while (std::getline(is, ln)) {
    ++line;
    if (ln.find_first_not_of(" \t\r") != std::string::npos) {
      report(sink, Code::kParseTrailingGarbage, line, "'" + ln + "'");
      return std::nullopt;
    }
  }
  is.clear();
  return io::LoadedLayout{std::move(*g), std::move(*geom)};
}

}  // namespace mlvl::oracle
