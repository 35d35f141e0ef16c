#include "core/io.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

namespace mlvl::io {
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

std::optional<LoadedLayout> parse_layout(std::istream& is,
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
  return LoadedLayout{std::move(*g), std::move(*geom)};
}

bool save_layout(const std::string& path, const Graph& g,
                 const LayoutGeometry& geom) {
  std::ofstream out(path);
  if (!out) return false;
  write_graph(out, g);
  write_geometry(out, geom);
  return static_cast<bool>(out);
}

std::optional<LoadedLayout> load_layout(const std::string& path,
                                        DiagnosticSink* sink) {
  std::ifstream in(path);
  if (!in) {
    if (sink) sink->report({.code = Code::kFileMissing, .detail = path});
    return std::nullopt;
  }
  return parse_layout(in, sink);
}

// ---- JSON -----------------------------------------------------------------

namespace {

/// Recursive-descent JSON parser over a string_view cursor. Depth-bounded so
/// adversarial nesting cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  std::optional<JsonValue> parse() {
    std::optional<JsonValue> v = value(0);
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  [[nodiscard]] bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<JsonValue> value(std::size_t depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= s_.size()) return std::nullopt;
    JsonValue v;
    switch (s_[pos_]) {
      case 'n':
        if (!literal("null")) return std::nullopt;
        return v;
      case 't':
        if (!literal("true")) return std::nullopt;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!literal("false")) return std::nullopt;
        v.kind = JsonValue::Kind::kBool;
        return v;
      case '"': return string_value();
      case '[': return array_value(depth);
      case '{': return object_value(depth);
      default: return number_value();
    }
  }

  std::optional<JsonValue> number_value() {
    const char* begin = s_.data() + pos_;
    const char* end = s_.data() + s_.size();
    double out = 0;
    auto [ptr, ec] = std::from_chars(begin, end, out);
    if (ec != std::errc() || ptr == begin) return std::nullopt;
    pos_ += static_cast<std::size_t>(ptr - begin);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = out;
    return v;
  }

  std::optional<std::string> string_body() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return std::nullopt;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> string_value() {
    std::optional<std::string> body = string_body();
    if (!body) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.str = std::move(*body);
    return v;
  }

  std::optional<JsonValue> array_value(std::size_t depth) {
    ++pos_;  // '['
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (eat(']')) return v;
    for (;;) {
      std::optional<JsonValue> item = value(depth + 1);
      if (!item) return std::nullopt;
      v.items.push_back(std::move(*item));
      skip_ws();
      if (eat(']')) return v;
      if (!eat(',')) return std::nullopt;
    }
  }

  std::optional<JsonValue> object_value(std::size_t depth) {
    ++pos_;  // '{'
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (eat('}')) return v;
    for (;;) {
      skip_ws();
      std::optional<std::string> key = string_body();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) return std::nullopt;
      std::optional<JsonValue> member = value(depth + 1);
      if (!member) return std::nullopt;
      v.members.emplace_back(std::move(*key), std::move(*member));
      skip_ws();
      if (eat('}')) return v;
      if (!eat(',')) return std::nullopt;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

std::optional<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

std::optional<JsonValue> load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_json(buf.str());
}

}  // namespace mlvl::io
