// Plain-text serialization of graphs and layout geometry.
//
// Format ("mlvl v1"): line-oriented, whitespace-separated, stable across
// versions by construction — each record starts with a tag. Intended for
// exporting layouts to external tooling and for golden tests.
//
//   mlvl-graph 1
//   nodes <N>
//   edge <u> <v>            (one per edge, in id order)
//
//   mlvl-geom 1
//   dims <width> <height> <layers>
//   box <node> <x> <y> <w> <h> <layer>
//   seg <edge> <x1> <y1> <x2> <y2> <layer>
//   via <edge> <x> <y> <z1> <z2>
//
// The readers never throw and never crash on corrupt input: every failure
// mode maps to a parse diagnostic (Code::kParse*) carrying the 1-based input
// line, reported to the optional DiagnosticSink. The historical nullopt-only
// API is preserved by defaulting the sink to nullptr.
//
// Fields are separated by spaces, tabs or CRs; blank lines and a last line
// without '\n' are allowed. `parse_layout` and `load_layout` read the stream
// once and never seek it, so the input may be a pipe.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/diagnostics.hpp"
#include "core/geometry.hpp"
#include "core/graph.hpp"

namespace mlvl::io {

void write_graph(std::ostream& os, const Graph& g);
void write_geometry(std::ostream& os, const LayoutGeometry& geom);

struct LoadedLayout {
  Graph graph;
  LayoutGeometry geom;
};

/// Parse a full graph+geometry block and reject trailing garbage. All
/// failures are diagnosed through `sink` (when given) with line numbers.
[[nodiscard]] std::optional<LoadedLayout> parse_layout(
    std::istream& is, DiagnosticSink* sink = nullptr);

/// File helpers. `save_layout` returns false on I/O failure. `load_layout`
/// distinguishes a missing file (Code::kFileMissing) from a parse failure
/// (Code::kParse* with a line number) through `sink`.
bool save_layout(const std::string& path, const Graph& g,
                 const LayoutGeometry& geom);
[[nodiscard]] std::optional<LoadedLayout> load_layout(
    const std::string& path, DiagnosticSink* sink = nullptr);

// ---- JSON -----------------------------------------------------------------
// Minimal JSON reader for the machine-readable artifacts the toolchain emits
// (obs trace/metrics files, BENCH_mlvl.json): strict enough to prove
// well-formedness in tests and to merge bench baselines across runs. Numbers
// are held as double; strings support the standard escapes (\uXXXX decodes
// the ASCII range, anything beyond becomes '?').

struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;                            ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  /// First member with the given key, nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parse one complete JSON document (trailing garbage rejected); nullopt on
/// any syntax error. Never throws on malformed input.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text);

/// File helper: nullopt when the file cannot be opened or does not parse.
[[nodiscard]] std::optional<JsonValue> load_json(const std::string& path);

}  // namespace mlvl::io
