#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/run_context.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#endif

namespace mlvl::obs {
namespace detail {

std::atomic<MetricsRegistry*> g_metrics{nullptr};

}  // namespace detail

namespace {

/// Shortest round-trip double formatting that is also valid JSON (no inf/nan
/// leak; integral values print without an exponent or trailing zeros).
std::string format_number(double v) {
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

std::size_t log2_bucket(double v) {
  if (v < 1) return 0;
  std::size_t b = 0;
  while (v >= 2 && b < 63) {
    v /= 2;
    ++b;
  }
  return b;
}

}  // namespace

MetricsRegistry::~MetricsRegistry() {
  MetricsRegistry* self = this;
  detail::g_metrics.compare_exchange_strong(self, nullptr,
                                            std::memory_order_relaxed);
}

void MetricsRegistry::install() {
  detail::g_metrics.store(this, std::memory_order_relaxed);
}

void MetricsRegistry::uninstall() {
  detail::g_metrics.store(nullptr, std::memory_order_relaxed);
}

MetricsRegistry* MetricsRegistry::current() {
  return detail::g_metrics.load(std::memory_order_relaxed);
}

void MetricsRegistry::counter_add(std::string_view name, std::uint64_t delta) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    counters_.emplace(std::string(name), delta);
  else
    it->second += delta;
}

void MetricsRegistry::gauge_set(std::string_view name, double value) {
  MutexLock lock(&mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    gauges_.emplace(std::string(name), value);
  else
    it->second = value;
}

void MetricsRegistry::gauge_max(std::string_view name, double value) {
  MutexLock lock(&mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    gauges_.emplace(std::string(name), value);
  else
    it->second = std::max(it->second, value);
}

void MetricsRegistry::histogram_record(std::string_view name, double value) {
  MutexLock lock(&mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), HistogramData{}).first;
  HistogramData& h = it->second;
  if (h.count == 0) {
    h.min = h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  ++h.buckets[log2_bucket(value)];
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::optional<double> MetricsRegistry::gauge(std::string_view name) const {
  MutexLock lock(&mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) return std::nullopt;
  return it->second;
}

std::optional<HistogramData> MetricsRegistry::histogram(
    std::string_view name) const {
  MutexLock lock(&mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) return std::nullopt;
  return it->second;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  MutexLock lock(&mu_);
  os << "{\n  \"run_id\": \"";
  write_json_escaped(os, run_id());
  os << "\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << v;
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << name
       << "\": " << format_number(v);
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << "\n    \"" << name
       << "\": {\"count\": " << h.count << ", \"sum\": " << format_number(h.sum)
       << ", \"min\": " << format_number(h.min)
       << ", \"max\": " << format_number(h.max) << "}";
    first = false;
  }
  os << "\n  }\n}\n";
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  MutexLock lock(&mu_);
  os << "kind,name,field,value\n";
  os << "meta,run_id,value," << run_id() << "\n";
  for (const auto& [name, v] : counters_)
    os << "counter," << name << ",value," << v << "\n";
  for (const auto& [name, v] : gauges_)
    os << "gauge," << name << ",value," << format_number(v) << "\n";
  for (const auto& [name, h] : histograms_) {
    os << "histogram," << name << ",count," << h.count << "\n";
    os << "histogram," << name << ",sum," << format_number(h.sum) << "\n";
    os << "histogram," << name << ",min," << format_number(h.min) << "\n";
    os << "histogram," << name << ",max," << format_number(h.max) << "\n";
  }
}

std::uint64_t publish_peak_rss() {
  std::uint64_t bytes = 0;
#if defined(__linux__)
  // /proc/self/status VmHWM is the peak resident set in kB; getrusage
  // ru_maxrss (also kB on Linux) is the fallback when /proc is unmounted.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      unsigned long long kb = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
        bytes = static_cast<std::uint64_t>(kb) * 1024;
        break;
      }
    }
    std::fclose(f);
  }
  if (bytes == 0) {
    struct rusage ru {};
    if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0)
      bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  }
#endif
  if (bytes != 0) gauge_set("process.peak_rss_bytes", double(bytes));
  return bytes;
}

}  // namespace mlvl::obs
