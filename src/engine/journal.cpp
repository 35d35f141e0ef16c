#include "engine/journal.hpp"

#include <cerrno>
#include <fstream>
#include <system_error>
#include <string_view>
#include <vector>

#include "obs/run_context.hpp"

namespace mlvl::engine {
namespace {

/// Backslash-escape the only characters that would break the line format.
std::string escape_field(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape_field(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: out += s[i];
    }
  }
  return out;
}

void split_tabs(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      out.push_back(line.substr(start));
      return;
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  std::optional<std::uint64_t> v = api::parse_uint(text);
  if (!v) return false;
  out = *v;
  return true;
}

void journal_error(DiagnosticSink* sink, const std::string& detail) {
  if (sink == nullptr) return;
  Diagnostic d;
  d.code = Code::kJournalError;
  d.severity = Severity::kError;
  d.detail = detail;
  sink->report(std::move(d));
}

}  // namespace

std::string sweep_job_key(const api::FamilySpec& spec, std::uint32_t L) {
  return api::format_family_spec(spec) + "|L=" + std::to_string(L);
}

SweepJournal::SweepJournal(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) return;
  // Header only for a fresh (or truncated-empty) journal; appending to an
  // existing one must not interleave a second header between records. A
  // fresh header carries the run id that started the file — resumed runs
  // append under the original id, which is exactly the correlation a
  // post-mortem wants.
  if (std::ftell(file_) == 0) {
    std::fputs(kHeader, file_);
    std::fputc('\t', file_);
    std::fputs("run_id=", file_);
    std::fputs(obs::run_id().c_str(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
  }
}

SweepJournal::~SweepJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

std::size_t SweepJournal::recorded() const {
  MutexLock lock(&mu_);
  return recorded_;
}

void SweepJournal::record(const JobResult& r) {
  if (file_ == nullptr) return;
  if (r.verdict != JobVerdict::kOk && r.verdict != JobVerdict::kFailed)
    return;  // deadline/skipped jobs did not finish; a resume re-runs them
  const LayoutMetrics& m = r.metrics;
  std::string line = sweep_job_key(r.spec, r.L);
  auto field = [&line](const char* name, std::uint64_t v) {
    line += '\t';
    line += name;
    line += '=';
    line += std::to_string(v);
  };
  line += '\t';
  line += "verdict=";
  line += verdict_name(r.verdict);
  field("cache_hit", r.cache_hit ? 1 : 0);
  field("nodes", r.nodes);
  field("edges", r.edges);
  field("w", m.width);
  field("h", m.height);
  field("layers", m.layers);
  field("area", m.area);
  field("ww", m.wiring_width);
  field("wh", m.wiring_height);
  field("warea", m.wiring_area);
  field("volume", m.volume);
  field("wire", m.total_wire_length);
  field("maxwire", m.max_wire_length);
  field("maxedge", m.max_wire_edge);
  field("vias", m.via_count);
  line += "\terr=";
  line += escape_field(r.error);
  line += '\n';

  MutexLock lock(&mu_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);  // crash-safety: a record is durable once we return
  ++recorded_;
}

std::optional<SweepResume> SweepJournal::load(const std::string& path,
                                              DiagnosticSink* sink) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // std::strerror is not thread-safe (clang-tidy concurrency-mt-unsafe);
    // std::error_code::message copies into its own buffer.
    journal_error(sink, path + ": " +
                            std::error_code(errno, std::generic_category())
                                .message());
    return std::nullopt;
  }
  // Accept the bare schema tag (pre-flight-recorder journals) or the tag
  // followed by tab-separated annotations such as run_id=.
  std::string line;
  const std::string_view header = kHeader;
  const bool header_ok =
      std::getline(in, line) &&
      std::string_view(line).substr(0, header.size()) == header &&
      (line.size() == header.size() || line[header.size()] == '\t');
  if (!header_ok) {
    journal_error(sink, path + ": missing '" + std::string(kHeader) +
                            "' header");
    return std::nullopt;
  }

  SweepResume resume;
  std::vector<std::string_view> fields;
  while (std::getline(in, line)) {
    // A crash can tear the final line; `record` always ends a durable line
    // with err= (possibly empty), so anything without it is a torn tail.
    split_tabs(line, fields);
    if (fields.size() < 2 || fields.back().substr(0, 4) != "err=") {
      ++resume.malformed_lines;
      continue;
    }
    JobResult r;
    r.resumed = true;
    bool have_verdict = false;
    bool bad = false;
    for (std::size_t i = 1; i < fields.size(); ++i) {
      const std::string_view f = fields[i];
      const std::size_t eq = f.find('=');
      if (eq == std::string_view::npos) {
        bad = true;
        break;
      }
      const std::string_view name = f.substr(0, eq);
      const std::string_view value = f.substr(eq + 1);
      std::uint64_t u = 0;
      if (name == "verdict") {
        have_verdict = verdict_from_name(value, r.verdict);
        bad = !have_verdict;
      } else if (name == "err") {
        r.error = unescape_field(value);
      } else if (parse_u64(value, u)) {
        if (name == "cache_hit") r.cache_hit = u != 0;
        else if (name == "nodes") r.nodes = u;
        else if (name == "edges") r.edges = u;
        else if (name == "w") r.metrics.width = static_cast<std::uint32_t>(u);
        else if (name == "h") r.metrics.height = static_cast<std::uint32_t>(u);
        else if (name == "layers")
          r.metrics.layers = static_cast<std::uint16_t>(u);
        else if (name == "area") r.metrics.area = u;
        else if (name == "ww")
          r.metrics.wiring_width = static_cast<std::uint32_t>(u);
        else if (name == "wh")
          r.metrics.wiring_height = static_cast<std::uint32_t>(u);
        else if (name == "warea") r.metrics.wiring_area = u;
        else if (name == "volume") r.metrics.volume = u;
        else if (name == "wire") r.metrics.total_wire_length = u;
        else if (name == "maxwire")
          r.metrics.max_wire_length = static_cast<std::uint32_t>(u);
        else if (name == "maxedge")
          r.metrics.max_wire_edge = static_cast<EdgeId>(u);
        else if (name == "vias") r.metrics.via_count = u;
        // unknown names: forward-compatible, ignored
      } else {
        bad = true;
        break;
      }
    }
    if (bad || !have_verdict) {
      ++resume.malformed_lines;
      continue;
    }
    r.ok = r.verdict == JobVerdict::kOk;
    // Re-recorded keys (a job finished again in a later resumed run) keep
    // the newest record, matching append order.
    resume.done[std::string(fields[0])] = std::move(r);
  }
  return resume;
}

}  // namespace mlvl::engine
