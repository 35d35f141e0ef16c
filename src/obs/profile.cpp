#include "obs/profile.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "core/io.hpp"
#include "obs/run_context.hpp"

namespace mlvl::obs {
namespace {

/// Milliseconds with fixed 3-decimal precision — the table/report unit.
std::string ms(std::uint64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", double(us) / 1000.0);
  return buf;
}

std::string percent(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", frac * 100.0);
  return buf;
}

/// Per-event working state derived by the containment scan.
struct Derived {
  std::uint64_t self_us = 0;        ///< dur minus direct children
  std::uint32_t depth = 0;          ///< derived nesting depth
  std::vector<std::size_t> kids;    ///< direct children (event indices)
};

std::uint64_t end_of(const ProfileEvent& ev) { return ev.ts_us + ev.dur_us; }

/// Stable ordering that puts a parent before the children it contains:
/// begin ascending, recorded depth ascending (when both known), duration
/// descending, original index as the final tie.
bool span_order(const std::vector<ProfileEvent>& evs, std::size_t a,
                std::size_t b) {
  const ProfileEvent& x = evs[a];
  const ProfileEvent& y = evs[b];
  if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
  if (x.depth != kProfileDepthUnknown && y.depth != kProfileDepthUnknown &&
      x.depth != y.depth)
    return x.depth < y.depth;
  if (x.dur_us != y.dur_us) return x.dur_us > y.dur_us;
  return a < b;
}

std::uint64_t parse_u64_or(const std::string& s, std::uint64_t fallback) {
  if (s.empty()) return fallback;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return fallback;
    v = v * 10 + std::uint64_t(c - '0');
  }
  return v;
}

const std::string* find_arg(const ProfileEvent& ev, std::string_view key) {
  for (const auto& [k, v] : ev.args)
    if (k == key) return &v;
  return nullptr;
}

}  // namespace

bool ProfileReport::has_phase(std::string_view name) const {
  return std::any_of(phases.begin(), phases.end(),
                     [&](const PhaseStats& p) { return p.name == name; });
}

ProfileReport profile_events(std::vector<ProfileEvent> events,
                             std::string run_id, const ProfileOptions& opt) {
  ProfileReport rep;
  rep.run_id = std::move(run_id);
  rep.events = events.size();
  if (events.empty()) return rep;

  std::uint64_t min_ts = UINT64_MAX;
  std::uint64_t max_end = 0;
  std::map<std::uint32_t, std::vector<std::size_t>> by_tid;  // ordered output
  for (std::size_t i = 0; i < events.size(); ++i) {
    min_ts = std::min(min_ts, events[i].ts_us);
    max_end = std::max(max_end, end_of(events[i]));
    by_tid[events[i].tid].push_back(i);
  }
  rep.begin_us = min_ts;
  rep.wall_us = max_end - min_ts;

  // Containment scan, per thread: walk spans in parent-before-child order
  // with a stack of open spans; each span's duration is charged against
  // the nearest enclosing span's self time. Spans that straddle an open
  // span (overlap without containment — not producible by obs::Span, but
  // a foreign trace might) close everything they straddle and restart as
  // roots instead of being half-attributed.
  std::vector<Derived> derived(events.size());
  const std::uint32_t main_tid = by_tid.begin()->first;
  for (auto& [tid, idxs] : by_tid) {
    std::sort(idxs.begin(), idxs.end(),
              [&](std::size_t a, std::size_t b) {
                return span_order(events, a, b);
              });
    std::vector<std::size_t> stack;
    ThreadStats ts;
    ts.tid = tid;
    ts.label = tid == main_tid ? "main" : "worker-" + std::to_string(tid);
    ts.spans = idxs.size();
    for (std::size_t i : idxs) {
      const ProfileEvent& ev = events[i];
      while (!stack.empty() && (ev.ts_us >= end_of(events[stack.back()]) ||
                                end_of(ev) > end_of(events[stack.back()])))
        stack.pop_back();
      derived[i].self_us = ev.dur_us;
      derived[i].depth = static_cast<std::uint32_t>(stack.size());
      if (!stack.empty()) {
        Derived& parent = derived[stack.back()];
        parent.self_us -= std::min(parent.self_us, ev.dur_us);
        parent.kids.push_back(i);
      } else {
        ts.busy_us += ev.dur_us;  // roots never overlap within a thread
      }
      stack.push_back(i);
    }
    for (std::size_t i : idxs) ts.self_us += derived[i].self_us;
    ts.utilization =
        rep.wall_us > 0 ? double(ts.busy_us) / double(rep.wall_us) : 0.0;
    rep.threads.push_back(std::move(ts));
  }

  // Phase aggregation: inclusive = span durations, exclusive = self times.
  std::unordered_map<std::string, PhaseStats> phases;
  for (std::size_t i = 0; i < events.size(); ++i) {
    PhaseStats& p = phases[events[i].name];
    p.name = events[i].name;
    ++p.count;
    p.incl_us += events[i].dur_us;
    p.excl_us += derived[i].self_us;
  }
  rep.phases.reserve(phases.size());
  for (auto& [name, p] : phases) rep.phases.push_back(std::move(p));
  std::sort(rep.phases.begin(), rep.phases.end(),
            [](const PhaseStats& a, const PhaseStats& b) {
              if (a.incl_us != b.incl_us) return a.incl_us > b.incl_us;
              return a.name < b.name;
            });

  // Critical path: the longest root span, then its longest direct child,
  // descending until a leaf. Ties go to the earlier span.
  auto better = [&](std::size_t a, std::size_t b) {  // is a better than b
    if (events[a].dur_us != events[b].dur_us)
      return events[a].dur_us > events[b].dur_us;
    return events[a].ts_us < events[b].ts_us;
  };
  std::size_t cur = SIZE_MAX;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (derived[i].depth != 0) continue;
    if (cur == SIZE_MAX || better(i, cur)) cur = i;
  }
  while (cur != SIZE_MAX) {
    rep.critical_path.push_back(CriticalPathHop{
        events[cur].name, events[cur].tid, events[cur].dur_us,
        derived[cur].self_us});
    std::size_t next = SIZE_MAX;
    for (std::size_t kid : derived[cur].kids)
      if (next == SIZE_MAX || better(kid, next)) next = kid;
    cur = next;
  }

  // Top-K slowest engine.job spans, with their correlation args.
  std::vector<std::size_t> job_idx;
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].name == "engine.job") job_idx.push_back(i);
  std::sort(job_idx.begin(), job_idx.end(), better);
  if (job_idx.size() > opt.top_k) job_idx.resize(opt.top_k);
  for (std::size_t i : job_idx) {
    const ProfileEvent& ev = events[i];
    SlowJob j;
    if (const std::string* v = find_arg(ev, "spec")) j.spec = *v;
    if (const std::string* v = find_arg(ev, "L")) j.L = parse_u64_or(*v, 0);
    if (const std::string* v = find_arg(ev, "verdict")) j.verdict = *v;
    if (const std::string* v = find_arg(ev, "worker"))
      j.worker = parse_u64_or(*v, 0);
    j.dur_us = ev.dur_us;
    rep.slowest_jobs.push_back(std::move(j));
  }
  return rep;
}

ProfileReport profile_session(const TraceSession& session,
                              const ProfileOptions& opt) {
  std::vector<ProfileEvent> evs;
  for (const TraceEvent& te : session.events()) {
    ProfileEvent ev;
    ev.name = te.name;
    ev.ts_us = te.ts_us;
    ev.dur_us = te.dur_us;
    ev.tid = te.tid;
    ev.depth = te.depth;
    for (std::uint32_t i = 0; i < te.arg_count && i < kMaxSpanArgs; ++i)
      ev.args.emplace_back(te.args[i].key, te.args[i].value);
    evs.push_back(std::move(ev));
  }
  return profile_events(std::move(evs), run_id(), opt);
}

std::optional<ProfileReport> profile_chrome_trace_text(
    std::string_view text, std::string* error, const ProfileOptions& opt) {
  const std::optional<io::JsonValue> doc = io::parse_json(text);
  if (!doc) {
    if (error != nullptr) *error = "not valid JSON";
    return std::nullopt;
  }
  const io::JsonValue* evs = doc->find("traceEvents");
  if (evs == nullptr || evs->kind != io::JsonValue::Kind::kArray) {
    if (error != nullptr) *error = "no traceEvents array (not a Chrome trace)";
    return std::nullopt;
  }
  std::string rid;
  if (const io::JsonValue* r = doc->find("runId");
      r != nullptr && r->kind == io::JsonValue::Kind::kString)
    rid = r->str;

  auto num_u64 = [](const io::JsonValue* v) -> std::uint64_t {
    if (v == nullptr || v->kind != io::JsonValue::Kind::kNumber) return 0;
    return v->number > 0 ? static_cast<std::uint64_t>(v->number) : 0;
  };

  std::vector<ProfileEvent> events;
  for (const io::JsonValue& item : evs->items) {
    if (item.kind != io::JsonValue::Kind::kObject) continue;
    const io::JsonValue* ph = item.find("ph");
    if (ph == nullptr || ph->kind != io::JsonValue::Kind::kString ||
        ph->str != "X")
      continue;  // metadata ("M") and foreign phases carry no duration
    ProfileEvent ev;
    if (const io::JsonValue* n = item.find("name");
        n != nullptr && n->kind == io::JsonValue::Kind::kString)
      ev.name = n->str;
    ev.ts_us = num_u64(item.find("ts"));
    ev.dur_us = num_u64(item.find("dur"));
    ev.tid = static_cast<std::uint32_t>(num_u64(item.find("tid")));
    if (const io::JsonValue* args = item.find("args");
        args != nullptr && args->kind == io::JsonValue::Kind::kObject) {
      for (const auto& [key, val] : args->members) {
        if (key == "depth" && val.kind == io::JsonValue::Kind::kNumber) {
          ev.depth = static_cast<std::uint32_t>(num_u64(&val));
        } else if (val.kind == io::JsonValue::Kind::kString) {
          ev.args.emplace_back(key, val.str);
        } else if (val.kind == io::JsonValue::Kind::kNumber) {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%.17g", val.number);
          ev.args.emplace_back(key, buf);
        }
      }
    }
    events.push_back(std::move(ev));
  }
  return profile_events(std::move(events), std::move(rid), opt);
}

std::optional<ProfileReport> load_profile_chrome_trace(
    const std::string& path, std::string* error, const ProfileOptions& opt) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot open";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string err;
  std::optional<ProfileReport> rep =
      profile_chrome_trace_text(buf.str(), &err, opt);
  if (!rep && error != nullptr) *error = path + ": " + err;
  return rep;
}

void ProfileReport::write_text(std::ostream& os) const {
  os << "profile: run " << (run_id.empty() ? "?" : run_id) << ", " << events
     << " span(s), wall " << ms(wall_us) << " ms, " << threads.size()
     << " thread(s)\n";
  if (events == 0) return;

  std::size_t name_w = 5;  // "phase"
  for (const PhaseStats& p : phases) name_w = std::max(name_w, p.name.size());
  os << "\n"
     << std::left << std::setw(int(name_w)) << "phase" << std::right
     << std::setw(7) << "count" << std::setw(12) << "incl_ms" << std::setw(12)
     << "excl_ms" << std::setw(8) << "excl%" << "\n";
  for (const PhaseStats& p : phases) {
    const double frac =
        wall_us > 0 ? double(p.excl_us) / double(wall_us) : 0.0;
    os << std::left << std::setw(int(name_w)) << p.name << std::right
       << std::setw(7) << p.count << std::setw(12) << ms(p.incl_us)
       << std::setw(12) << ms(p.excl_us) << std::setw(8) << percent(frac)
       << "\n";
  }

  os << "\n"
     << std::left << std::setw(10) << "thread" << std::right << std::setw(7)
     << "spans" << std::setw(12) << "busy_ms" << std::setw(12) << "self_ms"
     << std::setw(8) << "util%" << "\n";
  for (const ThreadStats& t : threads) {
    os << std::left << std::setw(10) << t.label << std::right << std::setw(7)
       << t.spans << std::setw(12) << ms(t.busy_us) << std::setw(12)
       << ms(t.self_us) << std::setw(8) << percent(t.utilization) << "\n";
  }

  if (!critical_path.empty()) {
    os << "\ncritical path:\n";
    std::string indent = "  ";
    for (const CriticalPathHop& hop : critical_path) {
      os << indent << hop.name << "  " << ms(hop.dur_us) << " ms (self "
         << ms(hop.excl_us) << " ms, tid " << hop.tid << ")\n";
      indent += "  ";
    }
  }

  if (!slowest_jobs.empty()) {
    std::size_t spec_w = 4;  // "spec"
    for (const SlowJob& j : slowest_jobs)
      spec_w = std::max(spec_w, j.spec.size());
    os << "\nslowest jobs:\n"
       << std::left << std::setw(int(spec_w)) << "spec" << std::right
       << std::setw(5) << "L" << "  " << std::left << std::setw(9)
       << "verdict" << std::right << std::setw(7) << "worker" << std::setw(12)
       << "ms" << "\n";
    for (const SlowJob& j : slowest_jobs) {
      os << std::left << std::setw(int(spec_w)) << j.spec << std::right
         << std::setw(5) << j.L << "  " << std::left << std::setw(9)
         << (j.verdict.empty() ? "?" : j.verdict) << std::right << std::setw(7)
         << j.worker << std::setw(12) << ms(j.dur_us) << "\n";
    }
  }
}

void ProfileReport::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"mlvl-profile-v1\",\n  \"run_id\": \"";
  write_json_escaped(os, run_id);
  os << "\",\n  \"events\": " << events << ",\n  \"wall_us\": " << wall_us
     << ",\n  \"phases\": [";
  bool first = true;
  for (const PhaseStats& p : phases) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"";
    write_json_escaped(os, p.name);
    os << "\", \"count\": " << p.count << ", \"incl_us\": " << p.incl_us
       << ", \"excl_us\": " << p.excl_us << "}";
    first = false;
  }
  os << "\n  ],\n  \"threads\": [";
  first = true;
  for (const ThreadStats& t : threads) {
    char util[32];
    std::snprintf(util, sizeof util, "%.4f", t.utilization);
    os << (first ? "\n" : ",\n") << "    {\"tid\": " << t.tid
       << ", \"label\": \"";
    write_json_escaped(os, t.label);
    os << "\", \"spans\": " << t.spans << ", \"busy_us\": " << t.busy_us
       << ", \"self_us\": " << t.self_us << ", \"utilization\": " << util
       << "}";
    first = false;
  }
  os << "\n  ],\n  \"critical_path\": [";
  first = true;
  for (const CriticalPathHop& hop : critical_path) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"";
    write_json_escaped(os, hop.name);
    os << "\", \"tid\": " << hop.tid << ", \"dur_us\": " << hop.dur_us
       << ", \"excl_us\": " << hop.excl_us << "}";
    first = false;
  }
  os << "\n  ],\n  \"slowest_jobs\": [";
  first = true;
  for (const SlowJob& j : slowest_jobs) {
    os << (first ? "\n" : ",\n") << "    {\"spec\": \"";
    write_json_escaped(os, j.spec);
    os << "\", \"L\": " << j.L << ", \"verdict\": \"";
    write_json_escaped(os, j.verdict);
    os << "\", \"worker\": " << j.worker << ", \"dur_us\": " << j.dur_us
       << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

}  // namespace mlvl::obs
