#include "obs/bench_compare.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>

#include "core/io.hpp"

namespace mlvl::obs {
namespace {

/// JSON-safe double formatting (mirrors obs/metrics.cpp): integral values
/// print bare, everything else round-trips.
std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::ostringstream os;
    os.precision(0);
    os << std::fixed << v;
    return os.str();
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Human-table cell: fixed 3 decimals keeps the columns aligned (fmt()'s
/// round-trip precision would overflow them).
std::string fmt_cell(double v) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << v;
  return os.str();
}

std::string point_key(const BenchPoint& p) {
  return p.family + "/L=" + std::to_string(p.L) +
         "/N=" + std::to_string(p.nodes);
}

double num_or(const io::JsonValue& obj, const char* name, double fallback) {
  const io::JsonValue* n = obj.find(name);
  return n != nullptr && n->kind == io::JsonValue::Kind::kNumber ? n->number
                                                                 : fallback;
}

std::string str_or(const io::JsonValue& obj, const char* name) {
  const io::JsonValue* s = obj.find(name);
  return s != nullptr && s->kind == io::JsonValue::Kind::kString ? s->str : "";
}

bool parse_point(const io::JsonValue& v, BenchPoint& p) {
  if (v.kind != io::JsonValue::Kind::kObject) return false;
  const io::JsonValue* f = v.find("family");
  if (f == nullptr || f->kind != io::JsonValue::Kind::kString) return false;
  p.family = f->str;
  p.L = static_cast<std::uint32_t>(num_or(v, "L", 0));
  p.nodes = static_cast<std::uint64_t>(num_or(v, "nodes", 0));
  const double wall = num_or(v, "wall_ms", 0);
  p.wall.median = wall;
  // v1 files carry only wall_ms; synthesize degenerate single-sample stats
  // so the comparator has one uniform shape.
  p.wall.min = num_or(v, "wall_min_ms", wall);
  p.wall.max = num_or(v, "wall_max_ms", wall);
  p.wall.p95 = num_or(v, "wall_p95_ms", wall);
  p.wall.stddev = num_or(v, "wall_stddev_ms", 0);
  p.wall.repeats = static_cast<std::uint32_t>(num_or(v, "repeats", 1));
  for (const char* m : {"area", "wiring_area", "volume", "max_wire", "vias"})
    p.metrics[m] = num_or(v, m, 0);
  return true;
}

}  // namespace

std::optional<BenchFile> load_bench_file(const std::string& path,
                                         std::string* error) {
  std::optional<io::JsonValue> doc = io::load_json(path);
  if (!doc) {
    if (error != nullptr) *error = path + ": cannot open or not valid JSON";
    return std::nullopt;
  }
  const io::JsonValue* recs = doc->find("records");
  if (recs == nullptr || recs->kind != io::JsonValue::Kind::kArray) {
    if (error != nullptr) *error = path + ": no \"records\" array";
    return std::nullopt;
  }
  BenchFile file;
  for (const io::JsonValue& item : recs->items) {
    BenchPoint p;
    if (!parse_point(item, p)) {
      if (error != nullptr) *error = path + ": malformed bench record";
      return std::nullopt;
    }
    file.points[point_key(p)] = std::move(p);
  }
  if (const io::JsonValue* env = doc->find("env");
      env != nullptr && env->kind == io::JsonValue::Kind::kObject) {
    file.has_env = true;
    file.env.compiler = str_or(*env, "compiler");
    file.env.build_type = str_or(*env, "build_type");
    file.env.flags = str_or(*env, "flags");
    file.env.cores = static_cast<std::uint32_t>(num_or(*env, "cores", 0));
  }
  return file;
}

const char* diff_verdict_name(DiffVerdict v) {
  switch (v) {
    case DiffVerdict::kUnchanged: return "unchanged";
    case DiffVerdict::kImproved: return "improved";
    case DiffVerdict::kRegressed: return "regressed";
    case DiffVerdict::kNew: return "new";
    case DiffVerdict::kMissing: return "missing";
  }
  return "?";
}

std::uint64_t DiffReport::count(DiffVerdict v) const {
  std::uint64_t n = 0;
  for (const DiffEntry& e : entries)
    if (e.verdict == v) ++n;
  return n;
}

DiffReport diff_bench(const BenchFile& baseline, const BenchFile& current,
                      const DiffOptions& opt) {
  DiffReport rep;
  rep.options = opt;

  if (baseline.has_env && current.has_env) {
    std::string note;
    if (baseline.env.compiler != current.env.compiler)
      note += "compiler '" + baseline.env.compiler + "' vs '" +
              current.env.compiler + "'; ";
    if (baseline.env.build_type != current.env.build_type)
      note += "build type '" + baseline.env.build_type + "' vs '" +
              current.env.build_type + "'; ";
    if (baseline.env.flags != current.env.flags)
      note += "flags '" + baseline.env.flags + "' vs '" + current.env.flags +
              "'; ";
    if (baseline.env.cores != current.env.cores)
      note += "cores " + std::to_string(baseline.env.cores) + " vs " +
              std::to_string(current.env.cores) + "; ";
    if (!note.empty()) {
      note.resize(note.size() - 2);  // trailing "; "
      rep.env_mismatch = true;
      rep.env_note = note;
    }
  }

  std::set<std::string> keys;
  for (const auto& [k, p] : baseline.points) keys.insert(k);
  for (const auto& [k, p] : current.points) keys.insert(k);

  for (const std::string& k : keys) {
    const auto bit = baseline.points.find(k);
    const auto cit = current.points.find(k);
    if (bit == baseline.points.end() || cit == current.points.end()) {
      DiffEntry e{.key = k, .metric = "*"};
      e.verdict = bit == baseline.points.end() ? DiffVerdict::kNew
                                               : DiffVerdict::kMissing;
      const BenchPoint& only =
          bit == baseline.points.end() ? cit->second : bit->second;
      (e.verdict == DiffVerdict::kNew ? e.cur : e.base) = only.wall.median;
      rep.entries.push_back(std::move(e));
      continue;
    }
    const BenchPoint& b = bit->second;
    const BenchPoint& c = cit->second;

    // Wall time: noise-aware. The margin is the largest of the absolute
    // floor, the relative threshold, and the measured baseline spread.
    {
      DiffEntry e;
      e.key = k;
      e.metric = "wall_ms";
      e.base = b.wall.median;
      e.cur = c.wall.median;
      e.margin = std::max({opt.noise_floor_ms,
                           b.wall.median * opt.max_regress_pct / 100.0,
                           opt.stddev_mult * b.wall.stddev});
      e.delta_pct = e.base > 0 ? (e.cur - e.base) / e.base * 100.0 : 0;
      const double delta = e.cur - e.base;
      e.verdict = delta > e.margin    ? DiffVerdict::kRegressed
                  : -delta > e.margin ? DiffVerdict::kImproved
                                      : DiffVerdict::kUnchanged;
      rep.entries.push_back(std::move(e));
    }

    // Deterministic cost metrics: exact comparison, zero margin.
    for (const auto& [name, base_v] : b.metrics) {
      const auto cm = c.metrics.find(name);
      const double cur_v = cm != c.metrics.end() ? cm->second : 0;
      DiffEntry e;
      e.key = k;
      e.metric = name;
      e.base = base_v;
      e.cur = cur_v;
      e.delta_pct = base_v > 0 ? (cur_v - base_v) / base_v * 100.0 : 0;
      e.verdict = cur_v > base_v   ? DiffVerdict::kRegressed
                  : cur_v < base_v ? DiffVerdict::kImproved
                                   : DiffVerdict::kUnchanged;
      rep.entries.push_back(std::move(e));
    }
  }
  return rep;
}

void DiffReport::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"mlvl-bench-diff-v1\",\n";
  os << "  \"options\": {\"max_regress_pct\": " << fmt(options.max_regress_pct)
     << ", \"noise_floor_ms\": " << fmt(options.noise_floor_ms)
     << ", \"stddev_mult\": " << fmt(options.stddev_mult) << "},\n";
  os << "  \"env_mismatch\": " << (env_mismatch ? "true" : "false") << ",\n";
  os << "  \"summary\": {\"regressed\": " << count(DiffVerdict::kRegressed)
     << ", \"improved\": " << count(DiffVerdict::kImproved)
     << ", \"unchanged\": " << count(DiffVerdict::kUnchanged)
     << ", \"new\": " << count(DiffVerdict::kNew)
     << ", \"missing\": " << count(DiffVerdict::kMissing) << "},\n";
  os << "  \"entries\": [";
  bool first = true;
  for (const DiffEntry& e : entries) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"key\": \"" << e.key << "\", \"metric\": \"" << e.metric
       << "\", \"verdict\": \"" << diff_verdict_name(e.verdict)
       << "\", \"base\": " << fmt(e.base) << ", \"cur\": " << fmt(e.cur)
       << ", \"delta_pct\": " << fmt(e.delta_pct)
       << ", \"margin\": " << fmt(e.margin) << "}";
  }
  os << "\n  ]\n}\n";
}

void DiffReport::write_text(std::ostream& os, bool verbose) const {
  if (env_mismatch)
    os << "warning: environment mismatch (" << env_note
       << ") — wall-time deltas may not be meaningful\n";
  os << std::left << std::setw(34) << "key" << std::setw(13) << "metric"
     << std::setw(11) << "verdict" << std::right << std::setw(12) << "base"
     << std::setw(12) << "current" << std::setw(10) << "delta%" << "\n";
  for (const DiffEntry& e : entries) {
    const bool interesting = e.verdict == DiffVerdict::kRegressed ||
                             e.verdict == DiffVerdict::kImproved;
    if (!interesting && !verbose) continue;
    std::ostringstream delta;
    delta.precision(1);
    delta << std::fixed << std::showpos << e.delta_pct;
    os << std::left << std::setw(34) << e.key << std::setw(13) << e.metric
       << std::setw(11) << diff_verdict_name(e.verdict) << std::right
       << std::setw(12) << fmt_cell(e.base) << std::setw(12) << fmt_cell(e.cur)
       << std::setw(10)
       << (e.verdict == DiffVerdict::kNew || e.verdict == DiffVerdict::kMissing
               ? std::string("-")
               : delta.str())
       << "\n";
  }
  os << "bench-diff: " << count(DiffVerdict::kRegressed) << " regressed, "
     << count(DiffVerdict::kImproved) << " improved, "
     << count(DiffVerdict::kUnchanged) << " unchanged, "
     << count(DiffVerdict::kNew) << " new, " << count(DiffVerdict::kMissing)
     << " missing\n";
}

}  // namespace mlvl::obs
