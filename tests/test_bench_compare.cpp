// The perf-trajectory toolchain: repeat-statistics math on known vectors,
// the noise-aware bench-diff verdicts (regression / improvement /
// within-noise / new key / missing key), the 0/1 exit mapping and malformed
// input handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "obs/bench_compare.hpp"
#include "obs/stats.hpp"

namespace mlvl::obs {
namespace {

// ------------------------------------------------------------ SampleStats

TEST(SampleStats, OddCountMedianAndExtremes) {
  SampleStats s = summarize({5, 1, 9, 3, 7});
  EXPECT_DOUBLE_EQ(s.median, 5);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 9);
  EXPECT_EQ(s.repeats, 5u);
}

TEST(SampleStats, EvenCountMedianIsMidpoint) {
  SampleStats s = summarize({4, 2, 8, 6});
  EXPECT_DOUBLE_EQ(s.median, 5);  // (4 + 6) / 2
  EXPECT_EQ(s.repeats, 4u);
}

TEST(SampleStats, P95NearestRank) {
  // 20 samples 1..20: rank ceil(0.95 * 20) = 19 -> value 19.
  std::vector<double> v;
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(summarize(v).p95, 19);
  // 5 samples: rank ceil(4.75) = 5 -> the max.
  EXPECT_DOUBLE_EQ(summarize({10, 20, 30, 40, 50}).p95, 50);
  // 100 samples 1..100: rank 95.
  v.clear();
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(summarize(v).p95, 95);
}

TEST(SampleStats, StddevOnKnownVector) {
  // {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, population stddev 2 (textbook case).
  SampleStats s = summarize({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(s.stddev, 2);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
}

TEST(SampleStats, SingleAndEmpty) {
  SampleStats one = summarize({3.5});
  EXPECT_DOUBLE_EQ(one.median, 3.5);
  EXPECT_DOUBLE_EQ(one.min, 3.5);
  EXPECT_DOUBLE_EQ(one.p95, 3.5);
  EXPECT_DOUBLE_EQ(one.stddev, 0);
  EXPECT_EQ(one.repeats, 1u);
  SampleStats none = summarize({});
  EXPECT_EQ(none.repeats, 0u);
  EXPECT_DOUBLE_EQ(none.median, 0);
}

TEST(BuildEnv, CaptureIsPopulated) {
  BuildEnv env = capture_build_env();
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_FALSE(env.build_type.empty());
  EXPECT_GT(env.cores, 0u);
}

// ------------------------------------------------------------- bench-diff

/// A scratch file that deletes itself.
class TempFile {
 public:
  explicit TempFile(const std::string& name, const std::string& content)
      : path_("bench_compare_test_" + name) {
    std::ofstream os(path_);
    os << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string record_json(const std::string& family, int L, int nodes,
                        double wall, double stddev, int area) {
  std::ostringstream os;
  os << "{\"family\": \"" << family << "\", \"L\": " << L
     << ", \"nodes\": " << nodes << ", \"wall_ms\": " << wall
     << ", \"wall_min_ms\": " << wall << ", \"wall_max_ms\": " << wall
     << ", \"wall_p95_ms\": " << wall << ", \"wall_stddev_ms\": " << stddev
     << ", \"repeats\": 5, \"area\": " << area
     << ", \"wiring_area\": 10, \"volume\": 20, \"max_wire\": 4, \"vias\": 2}";
  return os.str();
}

std::string bench_json(const std::vector<std::string>& records,
                       const std::string& env = "") {
  std::string s = "{\n  \"schema\": \"mlvl-bench-v2\",\n";
  if (!env.empty()) s += "  \"env\": " + env + ",\n";
  s += "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i)
    s += "    " + records[i] + (i + 1 < records.size() ? ",\n" : "\n");
  s += "  ]\n}\n";
  return s;
}

const DiffEntry* find_entry(const DiffReport& r, const std::string& key,
                            const std::string& metric) {
  for (const DiffEntry& e : r.entries)
    if (e.key == key && e.metric == metric) return &e;
  return nullptr;
}

TEST(BenchDiff, RegressionBeyondMarginFailsTheGate) {
  TempFile base("base1.json",
                bench_json({record_json("hypercube", 4, 64, 100, 1, 500)}));
  TempFile cur("cur1.json",
               bench_json({record_json("hypercube", 4, 64, 200, 1, 500)}));
  std::string err;
  auto b = load_bench_file(base.path(), &err);
  auto c = load_bench_file(cur.path(), &err);
  ASSERT_TRUE(b && c) << err;
  DiffReport rep = diff_bench(*b, *c, {.max_regress_pct = 20});
  const DiffEntry* wall = find_entry(rep, "hypercube/L=4/N=64", "wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->verdict, DiffVerdict::kRegressed);  // 2x > 20% margin
  EXPECT_NEAR(wall->delta_pct, 100, 1e-9);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.exit_code(), 1);
}

TEST(BenchDiff, SlowdownWithinNoiseIsUnchanged) {
  TempFile base("base2.json",
                bench_json({record_json("kary", 4, 27, 100, 1, 500)}));
  TempFile cur("cur2.json",
               bench_json({record_json("kary", 4, 27, 115, 1, 500)}));
  auto b = load_bench_file(base.path(), nullptr);
  auto c = load_bench_file(cur.path(), nullptr);
  ASSERT_TRUE(b && c);
  // 15% slowdown under a 20% threshold: inside the margin.
  DiffReport rep = diff_bench(*b, *c, {.max_regress_pct = 20});
  const DiffEntry* wall = find_entry(rep, "kary/L=4/N=27", "wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->verdict, DiffVerdict::kUnchanged);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.exit_code(), 0);
}

TEST(BenchDiff, NoiseFloorAbsorbsSmallAbsoluteDeltas) {
  // 0.1 ms -> 0.3 ms is a 200% slowdown but under a 2 ms absolute floor.
  TempFile base("base3.json",
                bench_json({record_json("ccc", 2, 24, 0.1, 0, 7)}));
  TempFile cur("cur3.json",
               bench_json({record_json("ccc", 2, 24, 0.3, 0, 7)}));
  auto b = load_bench_file(base.path(), nullptr);
  auto c = load_bench_file(cur.path(), nullptr);
  ASSERT_TRUE(b && c);
  DiffReport rep =
      diff_bench(*b, *c, {.max_regress_pct = 20, .noise_floor_ms = 2.0});
  EXPECT_EQ(find_entry(rep, "ccc/L=2/N=24", "wall_ms")->verdict,
            DiffVerdict::kUnchanged);
  // With no floor the same delta is a regression.
  DiffReport strict =
      diff_bench(*b, *c, {.max_regress_pct = 20, .noise_floor_ms = 0});
  EXPECT_EQ(find_entry(strict, "ccc/L=2/N=24", "wall_ms")->verdict,
            DiffVerdict::kRegressed);
}

TEST(BenchDiff, BaselineSpreadWidensTheMargin) {
  // 30% slowdown, but the baseline's stddev is 15 ms: 3 sigma = 45 > 30.
  TempFile base("base4.json",
                bench_json({record_json("rh", 4, 64, 100, 15, 9)}));
  TempFile cur("cur4.json",
               bench_json({record_json("rh", 4, 64, 130, 1, 9)}));
  auto b = load_bench_file(base.path(), nullptr);
  auto c = load_bench_file(cur.path(), nullptr);
  ASSERT_TRUE(b && c);
  DiffReport rep = diff_bench(
      *b, *c, {.max_regress_pct = 20, .noise_floor_ms = 2, .stddev_mult = 3});
  EXPECT_EQ(find_entry(rep, "rh/L=4/N=64", "wall_ms")->verdict,
            DiffVerdict::kUnchanged);
}

TEST(BenchDiff, SpeedupBeyondMarginIsImproved) {
  TempFile base("base5.json",
                bench_json({record_json("ghc", 4, 32, 100, 1, 11)}));
  TempFile cur("cur5.json",
               bench_json({record_json("ghc", 4, 32, 40, 1, 11)}));
  auto b = load_bench_file(base.path(), nullptr);
  auto c = load_bench_file(cur.path(), nullptr);
  ASSERT_TRUE(b && c);
  DiffReport rep = diff_bench(*b, *c, {});
  EXPECT_EQ(find_entry(rep, "ghc/L=4/N=32", "wall_ms")->verdict,
            DiffVerdict::kImproved);
  EXPECT_TRUE(rep.clean());  // improvements never fail the gate
}

TEST(BenchDiff, DeterministicMetricChangeIsExact) {
  // area 500 -> 501: deterministic, so even +0.2% is a regression.
  TempFile base("base6.json",
                bench_json({record_json("butterfly", 4, 32, 10, 0, 500)}));
  TempFile cur("cur6.json",
               bench_json({record_json("butterfly", 4, 32, 10, 0, 501)}));
  auto b = load_bench_file(base.path(), nullptr);
  auto c = load_bench_file(cur.path(), nullptr);
  ASSERT_TRUE(b && c);
  DiffReport rep = diff_bench(*b, *c, {});
  const DiffEntry* area = find_entry(rep, "butterfly/L=4/N=32", "area");
  ASSERT_NE(area, nullptr);
  EXPECT_EQ(area->verdict, DiffVerdict::kRegressed);
  EXPECT_EQ(rep.exit_code(), 1);
  // Unchanged metrics stay unchanged.
  EXPECT_EQ(find_entry(rep, "butterfly/L=4/N=32", "volume")->verdict,
            DiffVerdict::kUnchanged);
}

TEST(BenchDiff, NewAndMissingKeysAreInformational) {
  TempFile base("base7.json",
                bench_json({record_json("hypercube", 4, 64, 10, 0, 500),
                            record_json("hypercube", 8, 64, 10, 0, 250)}));
  TempFile cur("cur7.json",
               bench_json({record_json("hypercube", 4, 64, 10, 0, 500),
                           record_json("kary", 4, 27, 5, 0, 120)}));
  auto b = load_bench_file(base.path(), nullptr);
  auto c = load_bench_file(cur.path(), nullptr);
  ASSERT_TRUE(b && c);
  DiffReport rep = diff_bench(*b, *c, {});
  EXPECT_EQ(find_entry(rep, "kary/L=4/N=27", "*")->verdict, DiffVerdict::kNew);
  EXPECT_EQ(find_entry(rep, "hypercube/L=8/N=64", "*")->verdict,
            DiffVerdict::kMissing);
  EXPECT_EQ(rep.count(DiffVerdict::kNew), 1u);
  EXPECT_EQ(rep.count(DiffVerdict::kMissing), 1u);
  // Neither fails the gate: a CI subset run against the full baseline is ok.
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.exit_code(), 0);
}

TEST(BenchDiff, EnvMismatchIsFlagged) {
  const std::string env_a =
      R"({"compiler": "gcc 13", "build_type": "Release", "flags": "", "cores": 8})";
  const std::string env_b =
      R"({"compiler": "gcc 13", "build_type": "Debug", "flags": "", "cores": 8})";
  TempFile base("base8.json",
                bench_json({record_json("ccc", 4, 24, 10, 0, 7)}, env_a));
  TempFile cur("cur8.json",
               bench_json({record_json("ccc", 4, 24, 10, 0, 7)}, env_b));
  auto b = load_bench_file(base.path(), nullptr);
  auto c = load_bench_file(cur.path(), nullptr);
  ASSERT_TRUE(b && c);
  EXPECT_TRUE(b->has_env);
  EXPECT_EQ(b->env.build_type, "Release");
  DiffReport rep = diff_bench(*b, *c, {});
  EXPECT_TRUE(rep.env_mismatch);
  EXPECT_NE(rep.env_note.find("build type"), std::string::npos);
}

TEST(BenchDiff, EnvMismatchNamesEveryDifferingField) {
  const std::string env_a =
      R"({"compiler": "gcc 13", "build_type": "Release", "flags": "-O2", "cores": 8})";
  const std::string env_b =
      R"({"compiler": "clang 18", "build_type": "Release", "flags": "-O3 -march=native", "cores": 16})";
  TempFile base("base8f.json",
                bench_json({record_json("ccc", 4, 24, 10, 0, 7)}, env_a));
  TempFile cur("cur8f.json",
               bench_json({record_json("ccc", 4, 24, 10, 0, 7)}, env_b));
  auto b = load_bench_file(base.path(), nullptr);
  auto c = load_bench_file(cur.path(), nullptr);
  ASSERT_TRUE(b && c);
  EXPECT_EQ(b->env.flags, "-O2");
  DiffReport rep = diff_bench(*b, *c, {});
  ASSERT_TRUE(rep.env_mismatch);
  // The note carries both values for every field that differs — the matched
  // build_type stays out of it.
  EXPECT_NE(rep.env_note.find("compiler 'gcc 13' vs 'clang 18'"),
            std::string::npos)
      << rep.env_note;
  EXPECT_NE(rep.env_note.find("flags '-O2' vs '-O3 -march=native'"),
            std::string::npos)
      << rep.env_note;
  EXPECT_NE(rep.env_note.find("cores 8 vs 16"), std::string::npos)
      << rep.env_note;
  EXPECT_EQ(rep.env_note.find("build type"), std::string::npos)
      << rep.env_note;
}

TEST(BenchDiff, MalformedInputsAreRejectedWithReason) {
  std::string err;
  EXPECT_FALSE(load_bench_file("does_not_exist.json", &err).has_value());
  EXPECT_NE(err.find("does_not_exist.json"), std::string::npos);

  TempFile bad_json("bad1.json", "{ not json");
  err.clear();
  EXPECT_FALSE(load_bench_file(bad_json.path(), &err).has_value());
  EXPECT_FALSE(err.empty());

  TempFile no_records("bad2.json", R"({"schema": "mlvl-bench-v2"})");
  err.clear();
  EXPECT_FALSE(load_bench_file(no_records.path(), &err).has_value());
  EXPECT_NE(err.find("records"), std::string::npos);

  TempFile bad_record("bad3.json",
                      R"({"records": [{"L": 4, "nodes": 2}]})");
  err.clear();
  EXPECT_FALSE(load_bench_file(bad_record.path(), &err).has_value());
  EXPECT_NE(err.find("malformed"), std::string::npos);
}

TEST(BenchDiff, V1RecordsLoadWithDegenerateStats) {
  TempFile v1("v1.json",
              R"({"schema": "mlvl-bench-v1", "records": [
                   {"family": "hypercube", "L": 4, "nodes": 64,
                    "wall_ms": 12.5, "area": 100, "wiring_area": 50,
                    "volume": 200, "max_wire": 8, "vias": 16}]})");
  auto f = load_bench_file(v1.path(), nullptr);
  ASSERT_TRUE(f.has_value());
  EXPECT_FALSE(f->has_env);
  const BenchPoint& p = f->points.at("hypercube/L=4/N=64");
  EXPECT_DOUBLE_EQ(p.wall.median, 12.5);
  EXPECT_DOUBLE_EQ(p.wall.min, 12.5);
  EXPECT_DOUBLE_EQ(p.wall.p95, 12.5);
  EXPECT_DOUBLE_EQ(p.wall.stddev, 0);
  EXPECT_EQ(p.wall.repeats, 1u);
  EXPECT_DOUBLE_EQ(p.metrics.at("area"), 100);
}

TEST(BenchDiff, JsonReportRoundTrips) {
  TempFile base("base9.json",
                bench_json({record_json("hypercube", 4, 64, 100, 1, 500)}));
  TempFile cur("cur9.json",
               bench_json({record_json("hypercube", 4, 64, 300, 1, 480)}));
  auto b = load_bench_file(base.path(), nullptr);
  auto c = load_bench_file(cur.path(), nullptr);
  ASSERT_TRUE(b && c);
  DiffReport rep = diff_bench(*b, *c, {});
  std::ostringstream os;
  rep.write_json(os);
  std::optional<io::JsonValue> doc = io::parse_json(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  EXPECT_EQ(doc->find("schema")->str, "mlvl-bench-diff-v1");
  const io::JsonValue* summary = doc->find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("regressed")->number, 1);  // wall_ms 3x
  EXPECT_EQ(summary->find("improved")->number, 1);   // area shrank
  const io::JsonValue* entries = doc->find("entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(entries->items.size(), 6u);  // wall_ms + 5 deterministic metrics

  std::ostringstream text;
  rep.write_text(text, /*verbose=*/true);
  EXPECT_NE(text.str().find("regressed"), std::string::npos);
  EXPECT_NE(text.str().find("bench-diff: 1 regressed"), std::string::npos);
}

}  // namespace
}  // namespace mlvl::obs
