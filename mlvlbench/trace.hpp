// Benchmark-side tracing: one span around each public mlvl call the
// benchmark makes, kept in memory and written out once at exit. Nothing here
// reaches into the library; the spans sit at the boundaries the benchmark
// itself calls through.
//
// A layer's self time is the summed duration of its spans minus the part of
// each span its child spans cover. Root spans (no parent) are the benchmark's
// own bookkeeping around the layer calls, so their self time is the
// unattributed remainder of the traced wall time.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mlvlbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 for a root
    std::int64_t item;    ///< workload item the span belongs to, -1 if none
  };

  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Run `f` inside a span named `name` (a string literal) when tracing is
  /// on; call it directly otherwise.
  template <class F>
  decltype(auto) span(const char* name, std::int64_t item, F&& f) {
    if (!on_) return f();
    Scope scope(*this, name, item);
    return f();
  }

  /// Add `v` to the work counter `key` (e.g. "check.points").
  void count(const std::string& key, double v) {
    if (on_) counts_[key] += v;
  }

  [[nodiscard]] const std::map<std::string, double>& counts() const {
    return counts_;
  }

  /// Self time per span name, in milliseconds, summed over every span.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    const std::vector<std::int64_t> self = self_ns();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += static_cast<double>(self[i]) / 1e6;
    return out;
  }

  /// Summed duration of the root spans, in milliseconds.
  [[nodiscard]] double root_ms() const {
    std::int64_t ns = 0;
    for (const Span& s : spans_)
      if (s.parent < 0) ns += s.end_ns - s.start_ns;
    return static_cast<double>(ns) / 1e6;
  }

  /// Summed self time of the root spans, in milliseconds: the traced wall
  /// time no layer span accounts for.
  [[nodiscard]] double root_self_ms() const {
    const std::vector<std::int64_t> self = self_ns();
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent < 0) ns += self[i];
    return static_cast<double>(ns) / 1e6;
  }

  /// Write every span and counter as one JSON document. Returns false when
  /// the file cannot be written.
  bool write_json(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name
         << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"parent\": " << s.parent << ", \"item\": " << s.item << "}";
    }
    os << "\n], \"counts\": {";
    bool first = true;
    for (const auto& [key, v] : counts_) {
      os << (first ? "\n" : ",\n") << "  \"" << key << "\": " << v;
      first = false;
    }
    os << "\n}}\n";
    return static_cast<bool>(os.flush());
  }

 private:
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t item)
        : t_(t), index_(static_cast<std::int32_t>(t.spans_.size())) {
      const std::int32_t parent = t.open_.empty() ? -1 : t.open_.back();
      t.spans_.push_back({name, t.now_ns(), 0, parent, item});
      t.open_.push_back(index_);
    }
    ~Scope() {
      t_.spans_[index_].end_ns = t_.now_ns();
      t_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t index_;
  };

  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& s : spans_)
      if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
    return self;
  }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool on_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::map<std::string, double> counts_;
};

}  // namespace mlvlbench
