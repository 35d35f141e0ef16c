// Named metrics for the layout pipeline: counters, gauges, histograms.
//
// A `MetricsRegistry` owns every metric recorded during a pipeline run:
//   * counters — monotonically increasing totals (tracks allocated, vias
//     placed, interval-engine assignments, repair rip-ups, diagnostic
//     counts);
//   * gauges — last-value or running-max observations (area, volume, max
//     wire length, peak grid occupancy);
//   * histograms — count/sum/min/max plus power-of-two buckets (per-call
//     interval sizes, per-edge wire lengths).
//
// Like tracing (obs/trace.hpp), a registry is installed process-wide and the
// free functions `counter_add` / `gauge_set` / `gauge_max` /
// `histogram_record` are the instrumentation surface: with no registry
// installed each is one relaxed atomic load and a branch. Metric names must
// be string literals (stored by pointer on the hot path, copied only into
// the registry map under its lock).
//
// Emission: `write_json` (one object, metrics grouped by kind) and
// `write_csv` ("kind,name,field,value" rows) — both stable-ordered by name
// so diffs of two runs line up.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/thread_annotations.hpp"

namespace mlvl::obs {

/// Histogram state: count/sum/min/max and log2 buckets (bucket i counts
/// values v with 2^i <= v < 2^(i+1); bucket 0 also counts v < 1).
struct HistogramData {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::uint64_t buckets[64] = {};
};

/// Thread-safe: every recording call and every query locks `mu_` (one flat
/// lock, no lock is held while calling anything that takes another — see
/// DESIGN.md §7.10). Install/uninstall are *not* synchronized against
/// concurrent recording beyond the atomic pointer itself: install before
/// spawning recorders, uninstall after joining them (the engine follows
/// this).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();  ///< uninstalls itself if still current

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Make this registry the process-wide recording target / stop recording.
  void install();
  static void uninstall();
  [[nodiscard]] static MetricsRegistry* current();

  void counter_add(std::string_view name, std::uint64_t delta)
      MLVL_EXCLUDES(mu_);
  void gauge_set(std::string_view name, double value) MLVL_EXCLUDES(mu_);
  /// Keep the maximum of every observation (peak-style gauges).
  void gauge_max(std::string_view name, double value) MLVL_EXCLUDES(mu_);
  void histogram_record(std::string_view name, double value)
      MLVL_EXCLUDES(mu_);

  /// Queries (absent metric: counter reads 0, gauge/histogram read nullopt).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const
      MLVL_EXCLUDES(mu_);
  [[nodiscard]] std::optional<double> gauge(std::string_view name) const
      MLVL_EXCLUDES(mu_);
  [[nodiscard]] std::optional<HistogramData> histogram(
      std::string_view name) const MLVL_EXCLUDES(mu_);

  void write_json(std::ostream& os) const MLVL_EXCLUDES(mu_);
  void write_csv(std::ostream& os) const MLVL_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_
      MLVL_GUARDED_BY(mu_);
  std::map<std::string, double, std::less<>> gauges_ MLVL_GUARDED_BY(mu_);
  std::map<std::string, HistogramData, std::less<>> histograms_
      MLVL_GUARDED_BY(mu_);
};

namespace detail {
/// Process-wide recording target. All accesses are relaxed: the pointer is
/// the only shared state, the pointee synchronizes internally, and the
/// install-before-spawn / join-before-uninstall contract (class comment)
/// supplies the happens-before for the pointee's lifetime.
extern std::atomic<MetricsRegistry*> g_metrics;
}  // namespace detail

/// True iff a registry is installed (the one branch disabled metrics cost).
[[nodiscard]] inline bool metrics_enabled() {
  return detail::g_metrics.load(std::memory_order_relaxed) != nullptr;
}

/// Instrumentation surface: no-ops without an installed registry.
inline void counter_add(std::string_view name, std::uint64_t delta = 1) {
  if (MetricsRegistry* r = detail::g_metrics.load(std::memory_order_relaxed))
    r->counter_add(name, delta);
}
inline void gauge_set(std::string_view name, double value) {
  if (MetricsRegistry* r = detail::g_metrics.load(std::memory_order_relaxed))
    r->gauge_set(name, value);
}
inline void gauge_max(std::string_view name, double value) {
  if (MetricsRegistry* r = detail::g_metrics.load(std::memory_order_relaxed))
    r->gauge_max(name, value);
}
inline void histogram_record(std::string_view name, double value) {
  if (MetricsRegistry* r = detail::g_metrics.load(std::memory_order_relaxed))
    r->histogram_record(name, value);
}

/// Publish the process's peak resident set size (bytes) as the
/// `process.peak_rss_bytes` gauge on the installed registry. Returns the
/// value published, or 0 when the platform offers no way to read it.
std::uint64_t publish_peak_rss();

}  // namespace mlvl::obs
