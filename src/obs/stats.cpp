#include "obs/stats.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

namespace mlvl::obs {

SampleStats summarize(std::vector<double> samples) {
  SampleStats s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.repeats = static_cast<std::uint32_t>(n);
  s.min = samples.front();
  s.max = samples.back();
  s.median = n % 2 == 1 ? samples[n / 2]
                        : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  // Nearest-rank percentile: the value at rank ceil(0.95 * n), 1-based.
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(n)));
  s.p95 = samples[rank == 0 ? 0 : rank - 1];
  double mean = 0;
  for (double v : samples) mean += v;
  mean /= static_cast<double>(n);
  double var = 0;
  for (double v : samples) var += (v - mean) * (v - mean);
  s.stddev = std::sqrt(var / static_cast<double>(n));
  return s;
}

BuildEnv capture_build_env() {
  BuildEnv env;
#if defined(__clang__)
  env.compiler = "clang " + std::string(__clang_version__);
#elif defined(__GNUC__)
  env.compiler = "gcc " + std::string(__VERSION__);
#else
  env.compiler = "unknown";
#endif
#if defined(MLVL_BUILD_TYPE)
  env.build_type = MLVL_BUILD_TYPE;
#endif
  if (env.build_type.empty()) {
#if defined(NDEBUG)
    env.build_type = "Release";
#else
    env.build_type = "Debug";
#endif
  }
#if defined(MLVL_BUILD_FLAGS)
  env.flags = MLVL_BUILD_FLAGS;
#endif
  env.cores = std::thread::hardware_concurrency();
  return env;
}

}  // namespace mlvl::obs
