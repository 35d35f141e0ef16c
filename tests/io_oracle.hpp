// Stream-at-a-time reference mlvl v1 text I/O, used only by tests.
//
// The production writer formats records with std::to_chars into a chunk and
// the production reader scans fields in place from one in-memory buffer.
// These copies keep the obvious route: one locale-aware operator<< per
// field, and a getline scanner that tokenizes each line into a vector and
// hands a line back to the stream by a relative seek. `test_io_oracle`
// proves the production text byte-identical to this writer's and the
// production parse (result and diagnostics) identical to this reader's.
// The reader needs a seekable stream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>

#include "core/diagnostics.hpp"
#include "core/geometry.hpp"
#include "core/graph.hpp"
#include "core/io.hpp"

namespace mlvl::oracle {

void write_graph(std::ostream& os, const Graph& g);
void write_geometry(std::ostream& os, const LayoutGeometry& geom);

std::optional<Graph> read_graph(std::istream& is, DiagnosticSink* sink,
                                std::uint32_t* line);
std::optional<LayoutGeometry> read_geometry(std::istream& is,
                                            DiagnosticSink* sink,
                                            std::uint32_t* line);

/// `io::parse_layout`: graph, geometry, then reject trailing garbage.
std::optional<io::LoadedLayout> parse_layout(std::istream& is,
                                             DiagnosticSink* sink);

}  // namespace mlvl::oracle
