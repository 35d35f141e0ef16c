#include "core/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"

namespace mlvl::io {
namespace {

// ---- writer ----------------------------------------------------------------

// Formats records with std::to_chars into a fixed chunk and hands the stream
// one write() per full chunk: no locale and no sentry per field. A failing
// stream gets badbit from write(), as it did from operator<<.
class ChunkWriter {
 public:
  explicit ChunkWriter(std::ostream& os) : os_(os) {}
  ChunkWriter(const ChunkWriter&) = delete;
  ChunkWriter& operator=(const ChunkWriter&) = delete;

  /// One line: `tag`, then each field after a space, then '\n'.
  template <typename... Fields>
  void record(std::string_view tag, Fields... fields) {
    static_assert((std::is_unsigned_v<Fields> && ...));
    static_assert(((sizeof(Fields) <= sizeof(std::uint32_t)) && ...));
    constexpr std::size_t kField = 1 + 10;  // separator + UINT32_MAX digits
    if (static_cast<std::size_t>(buf_ + kChunk - p_) <
        tag.size() + sizeof...(Fields) * kField + 1)
      flush();
    p_ = std::copy(tag.begin(), tag.end(), p_);
    ((*p_++ = ' ', p_ = std::to_chars(p_, buf_ + kChunk, fields).ptr), ...);
    *p_++ = '\n';
  }

  /// Hand the buffered records to the stream.
  void flush() {
    os_.write(buf_, p_ - buf_);
    bytes_ += static_cast<std::uint64_t>(p_ - buf_);
    p_ = buf_;
  }

  /// Bytes flushed so far.
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  static constexpr std::size_t kChunk = 4096;
  std::ostream& os_;
  std::uint64_t bytes_ = 0;
  char* p_ = buf_;
  char buf_[kChunk];
};

void put_graph(ChunkWriter& w, const Graph& g) {
  w.record("mlvl-graph 1");
  w.record("nodes", g.num_nodes());
  for (const Edge& e : g.edges()) w.record("edge", e.u, e.v);
}

void put_geometry(ChunkWriter& w, const LayoutGeometry& geom) {
  w.record("mlvl-geom 1");
  w.record("dims", geom.width, geom.height, geom.num_layers);
  for (const NodeBox& b : geom.boxes)
    w.record("box", b.node, b.x, b.y, b.w, b.h, b.layer);
  for (const WireSeg& s : geom.segs)
    w.record("seg", s.edge, s.x1, s.y1, s.x2, s.y2, s.layer);
  for (const Via& v : geom.vias) w.record("via", v.edge, v.x, v.y, v.z1, v.z2);
}

std::uint64_t records(const Graph& g, const LayoutGeometry& geom) {
  return g.num_edges() + geom.boxes.size() + geom.segs.size() +
         geom.vias.size();
}

// ---- reader ----------------------------------------------------------------

/// The rest of `is`, read through its streambuf in large chunks. One pass
/// and no seek, so a pipe parses like a file.
std::string slurp(std::istream& is) {
  std::string text;
  const std::istream::sentry ok(is, /*noskipws=*/true);
  if (!ok) return text;
  std::streambuf& sb = *is.rdbuf();
  constexpr std::streamsize kChunk = std::streamsize{1} << 16;
  std::size_t n = 0;
  for (;;) {
    // A file or string buffer knows how much is left: read it all at once.
    const std::streamsize want = std::max(kChunk, sb.in_avail() + 1);
    text.resize(n + static_cast<std::size_t>(want));
    const std::streamsize got = sb.sgetn(text.data() + n, want);
    n += static_cast<std::size_t>(std::max<std::streamsize>(got, 0));
    if (got < want) break;
  }
  text.resize(n);
  return text;
}

constexpr bool blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

// Line cursor over text held in memory. A line runs to the next '\n' (found
// with memchr) or to the end of the text, so a last line without '\n' counts
// and an empty text has no lines. Fields are separated by blanks (space, tab,
// CR) and scanned in place; stepping back over a line resets the cursor.
class Cursor {
 public:
  explicit Cursor(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// Advance to the next line; false at the end of the text.
  bool next() {
    if (pos_ == end_) return false;
    bol_ = at_ = pos_;
    const void* nl =
        std::memchr(pos_, '\n', static_cast<std::size_t>(end_ - pos_));
    eol_ = nl ? static_cast<const char*>(nl) : end_;
    pos_ = nl ? eol_ + 1 : end_;
    ++line;
    return true;
  }
  /// Advance to the next line that is not blank; false at the end.
  bool next_filled() {
    do {
      if (!next()) return false;
    } while (at_end());
    return true;
  }
  /// Step back over the current line: next() returns it again.
  void unread() {
    pos_ = bol_;
    --line;
  }

  /// The current line, without its '\n'.
  [[nodiscard]] std::string_view text() const {
    return {bol_, static_cast<std::size_t>(eol_ - bol_)};
  }

  /// True when the rest of the current line is blank.
  bool at_end() {
    skip();
    return at_ == eol_;
  }
  /// The next field of the current line; empty at its end.
  std::string_view word() {
    skip();
    const char* b = at_;
    while (at_ != eol_ && !blank(*at_)) ++at_;
    return {b, static_cast<std::size_t>(at_ - b)};
  }
  /// The next field as an unsigned number: digits only, in range for `U`.
  /// `digits` (optional) receives the field's text.
  template <typename U>
  bool number(U& out, std::string_view* digits = nullptr) {
    skip();
    const auto [p, ec] = std::from_chars(at_, eol_, out);
    if (ec != std::errc{} || (p != eol_ && !blank(*p))) return false;
    if (digits) *digits = {at_, static_cast<std::size_t>(p - at_)};
    at_ = p;
    return true;
  }
  /// A layer field: a number no greater than 65535.
  bool layer(std::uint16_t& out) {
    std::uint32_t v = 0;
    if (!number(v) || v > std::numeric_limits<std::uint16_t>::max())
      return false;
    out = static_cast<std::uint16_t>(v);
    return true;
  }

  std::uint32_t line = 0;  ///< 1-based number of the current line

 private:
  void skip() {
    while (at_ != eol_ && blank(*at_)) ++at_;
  }

  const char* pos_;            ///< start of the next line
  const char* end_;            ///< end of the text
  const char* bol_ = nullptr;  ///< start of the current line
  const char* eol_ = nullptr;  ///< its end ('\n' or end of text)
  const char* at_ = nullptr;   ///< field scan position within it
};

void report(DiagnosticSink* sink, Code code, std::uint32_t line,
            std::string detail) {
  if (sink)
    sink->report({.code = code, .line = line, .detail = std::move(detail)});
}

/// `prefix` and the current line in single quotes.
std::string quoted(std::string prefix, const Cursor& c) {
  prefix += '\'';
  prefix += c.text();
  prefix += '\'';
  return prefix;
}

std::string got(const char* want, const Cursor& c) {
  return quoted(std::string("expected '") + want + "', got ", c);
}

// The section scanners stop before the first line whose tag they do not own,
// leaving it (and the line count) to the next section.

std::optional<Graph> scan_graph(Cursor& c, DiagnosticSink* sink) {
  auto fail = [&](Code code, std::string detail) {
    report(sink, code, c.line, std::move(detail));
    return std::nullopt;
  };
  if (!c.next_filled())
    return fail(Code::kParseBadHeader, "missing mlvl-graph header");
  if (c.word() != "mlvl-graph" || c.word() != "1" || !c.at_end())
    return fail(Code::kParseBadHeader, got("mlvl-graph 1", c));

  NodeId n = 0;
  if (!c.next_filled())
    return fail(Code::kParseBadRecord, "missing 'nodes' record");
  if (c.word() != "nodes" || !c.number(n) || !c.at_end())
    return fail(Code::kParseBadRecord, got("nodes <N>", c));

  Graph g(n);
  while (c.next()) {
    if (c.at_end()) continue;
    if (c.word() != "edge") {
      c.unread();
      break;
    }
    NodeId u = 0, v = 0;
    std::string_view u_digits;
    if (!c.number(u, &u_digits) || !c.number(v) || !c.at_end())
      return fail(Code::kParseBadRecord, got("edge <u> <v>", c));
    if (u == v)
      return fail(Code::kParseBadValue,
                  "self-loop at node " + std::string(u_digits));
    if (u >= n || v >= n)
      return fail(Code::kParseBadValue,
                  "edge endpoint beyond " + std::to_string(n) + " nodes");
    g.add_edge(u, v);
  }
  return g;
}

std::optional<LayoutGeometry> scan_geometry(Cursor& c, DiagnosticSink* sink) {
  auto fail = [&](Code code, std::string detail) {
    report(sink, code, c.line, std::move(detail));
    return std::nullopt;
  };
  if (!c.next_filled())
    return fail(Code::kParseBadHeader, "missing mlvl-geom header");
  if (c.word() != "mlvl-geom" || c.word() != "1" || !c.at_end())
    return fail(Code::kParseBadHeader, got("mlvl-geom 1", c));

  LayoutGeometry geom;
  std::uint32_t layers = 0;
  std::string_view layer_digits;
  if (!c.next_filled())
    return fail(Code::kParseBadRecord, "missing 'dims' record");
  if (c.word() != "dims" || !c.number(geom.width) || !c.number(geom.height) ||
      !c.number(layers, &layer_digits) || !c.at_end())
    return fail(Code::kParseBadRecord, got("dims <w> <h> <layers>", c));
  if (layers > std::numeric_limits<std::uint16_t>::max())
    return fail(Code::kParseBadValue, "layer count " +
                                          std::string(layer_digits) +
                                          " exceeds 65535");
  geom.num_layers = static_cast<std::uint16_t>(layers);

  while (c.next()) {
    if (c.at_end()) continue;
    const std::string_view tag = c.word();
    if (tag == "seg") {
      WireSeg s;
      if (!c.number(s.edge) || !c.number(s.x1) || !c.number(s.y1) ||
          !c.number(s.x2) || !c.number(s.y2) || !c.layer(s.layer) ||
          !c.at_end())
        return fail(Code::kParseBadRecord,
                    got("seg <edge> <x1> <y1> <x2> <y2> <layer>", c));
      geom.segs.push_back(s);
    } else if (tag == "via") {
      Via v;
      if (!c.number(v.edge) || !c.number(v.x) || !c.number(v.y) ||
          !c.layer(v.z1) || !c.layer(v.z2) || !c.at_end())
        return fail(Code::kParseBadRecord,
                    got("via <edge> <x> <y> <z1> <z2>", c));
      geom.vias.push_back(v);
    } else if (tag == "box") {
      NodeBox b;
      if (!c.number(b.node) || !c.number(b.x) || !c.number(b.y) ||
          !c.number(b.w) || !c.number(b.h) || !c.layer(b.layer) ||
          !c.at_end())
        return fail(Code::kParseBadRecord,
                    got("box <node> <x> <y> <w> <h> <layer>", c));
      geom.boxes.push_back(b);
    } else {
      c.unread();
      break;
    }
  }
  return geom;
}

/// A valid layout owns the rest of the text: anything after the geometry
/// block is a corruption signal, not an extension point. The geometry scan
/// skips blank lines and stops only at a line it does not own, so any line
/// left is garbage.
bool scan_end(Cursor& c, DiagnosticSink* sink) {
  if (!c.next()) return true;
  report(sink, Code::kParseTrailingGarbage, c.line, quoted("", c));
  return false;
}

}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  ChunkWriter w(os);
  put_graph(w, g);
  w.flush();
}

void write_geometry(std::ostream& os, const LayoutGeometry& geom) {
  ChunkWriter w(os);
  put_geometry(w, geom);
  w.flush();
}

std::optional<LoadedLayout> parse_layout(std::istream& is,
                                         DiagnosticSink* sink) {
  obs::Span span("io.parse");
  const std::string text = slurp(is);
  span.arg("bytes", std::uint64_t{text.size()});
  Cursor c(text);
  std::optional<Graph> g = scan_graph(c, sink);
  if (!g) return std::nullopt;
  std::optional<LayoutGeometry> geom = scan_geometry(c, sink);
  if (!geom || !scan_end(c, sink)) return std::nullopt;
  span.arg("records", records(*g, *geom));
  return LoadedLayout{std::move(*g), std::move(*geom)};
}

bool save_layout(const std::string& path, const Graph& g,
                 const LayoutGeometry& geom) {
  obs::Span span("io.save");
  std::ofstream out(path);
  if (!out) return false;
  ChunkWriter w(out);
  put_graph(w, g);
  put_geometry(w, geom);
  w.flush();
  span.arg("bytes", w.bytes()).arg("records", records(g, geom));
  // The file buffer's last bytes reach the disk only at close(): a save is
  // good only if that final flush is.
  out.close();
  return !out.fail();
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
