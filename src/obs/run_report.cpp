#include "obs/run_report.hpp"

#include <cstdio>
#include <ostream>

#include "obs/run_context.hpp"

namespace mlvl::obs {
namespace {

std::string fixed(double v, int decimals) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace

void RunReport::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"mlvl-run-report-v1\",\n  \"run_id\": \"";
  write_json_escaped(os, run_id);
  os << "\",\n  \"env\": ";
  write_build_env_json(os, env);

  os << ",\n  \"profile\": ";
  if (has_profile) {
    // Embed the complete mlvl-profile-v1 document: the report is
    // self-contained, and a consumer that only understands profiles can
    // pull this object out unchanged. Indentation is not re-flowed — the
    // document stays valid JSON, which is the contract that matters.
    profile.write_json(os);
    // profile.write_json ends with "}\n"; drop nothing, JSON whitespace is
    // free between tokens.
    os << "  ";
  } else {
    os << "null";
  }

  os << ",\n  \"metrics\": ";
  if (metrics_json.empty()) {
    os << "null";
  } else {
    std::string trimmed = metrics_json;
    while (!trimmed.empty() && trimmed.back() == '\n') trimmed.pop_back();
    os << trimmed;
  }

  os << ",\n  \"sweep\": ";
  if (!sweep.present) {
    os << "null";
  } else {
    os << "{\n    \"jobs\": " << sweep.jobs
       << ",\n    \"resumed\": " << sweep.resumed
       << ",\n    \"threads\": " << sweep.threads
       << ",\n    \"wall_ms\": " << fixed(sweep.wall_ms, 3)
       << ",\n    \"busy_ms\": " << fixed(sweep.busy_ms, 3)
       << ",\n    \"utilization\": " << fixed(sweep.utilization, 4)
       << ",\n    \"verdicts\": {";
    bool first = true;
    for (const auto& [name, count] : sweep.verdicts) {
      os << (first ? "" : ", ") << "\"";
      write_json_escaped(os, name);
      os << "\": " << count;
      first = false;
    }
    os << "},\n    \"cache\": {\"hits\": " << sweep.cache_hits
       << ", \"misses\": " << sweep.cache_misses << "}"
       << ",\n    \"warnings\": " << sweep.warnings
       << ",\n    \"governance\": {\"job_deadline_ms\": "
       << sweep.job_deadline_ms
       << ", \"sweep_deadline_ms\": " << sweep.sweep_deadline_ms
       << "}\n  }";
  }
  os << "\n}\n";
}

void RunReport::write_summary(std::ostream& os) const {
  os << "run " << (run_id.empty() ? "?" : run_id);
  if (sweep.present) {
    os << ": " << sweep.jobs << " job(s) on " << sweep.threads
       << " thread(s), wall " << fixed(sweep.wall_ms, 1) << " ms, util "
       << fixed(sweep.utilization * 100.0, 1) << "%";
    std::uint64_t ok = 0;
    std::uint64_t bad = 0;
    for (const auto& [name, count] : sweep.verdicts) {
      if (name == "ok")
        ok += count;
      else
        bad += count;
    }
    os << ", verdicts " << ok << " ok / " << bad << " other";
    os << ", cache " << sweep.cache_hits << "h/" << sweep.cache_misses
       << "m";
  } else if (has_profile) {
    os << ": " << profile.events << " span(s), wall "
       << fixed(double(profile.wall_us) / 1000.0, 1) << " ms";
  }
}

}  // namespace mlvl::obs
