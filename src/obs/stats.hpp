// Repeat-run statistics and build-environment capture for the bench harness.
//
// A bench point is no longer one wall-time sample: the harness runs warmup
// iterations (discarded) followed by N measured repeats and summarizes them
// as `SampleStats` — median (the headline number: robust against one-sided
// scheduler noise), min, p95, and stddev, plus the repeat count itself so a
// comparator can judge how trustworthy the spread is. `BuildEnv` records the
// toolchain the samples were taken under (compiler, build type, flags, core
// count); two BENCH files measured under different environments are still
// comparable, but the comparator flags the mismatch instead of letting a
// Debug-vs-Release diff masquerade as a regression.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mlvl::obs {

/// Summary of repeated wall-time samples (or any nonnegative measurements).
struct SampleStats {
  double median = 0;
  double min = 0;
  double max = 0;
  double p95 = 0;     ///< nearest-rank percentile at rank ceil(0.95 * n)
  double stddev = 0;  ///< population standard deviation
  std::uint32_t repeats = 0;
};

/// Summarize `samples` (order irrelevant; the vector is copied and sorted).
/// Empty input yields all-zero stats. Median is the usual midpoint rule
/// (mean of the two central values for even n); p95 is the nearest-rank
/// percentile value at rank ceil(0.95 * n).
[[nodiscard]] SampleStats summarize(std::vector<double> samples);

/// The toolchain and machine a bench run was measured under.
struct BuildEnv {
  std::string compiler;    ///< e.g. "gcc 13.2.0" / "clang 17.0.6"
  std::string build_type;  ///< CMAKE_BUILD_TYPE, or NDEBUG-derived fallback
  std::string flags;       ///< CMAKE_CXX_FLAGS the library was compiled with
  std::uint32_t cores = 0; ///< std::thread::hardware_concurrency()
};

/// Capture the environment this library was compiled into / is running on.
[[nodiscard]] BuildEnv capture_build_env();

}  // namespace mlvl::obs
