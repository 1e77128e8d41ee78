// fastt-bench/1 schema round-trip and the bench-diff comparator rules:
// warn vs. hard-regression thresholds, the min-repeats guard that keeps a
// single noisy run from failing CI, direction handling for
// higher-is-better metrics, unmatched cells, and history sequencing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/bench_history.h"
#include "obs/json.h"

namespace fastt {
namespace {

BenchHistoryDoc MakeDoc(const std::string& bench, double scale,
                        int repeats = 3) {
  BenchHistoryDoc doc;
  doc.run["benchmark"] = bench;
  BenchReport report;
  report.benchmark = bench;
  report.params = {{"model", "lenet"}, {"gpus", "2"}};
  BenchMetricSeries series;
  series.name = "wall_s";
  series.unit = "s";
  series.lower_is_better = true;
  for (int i = 0; i < repeats; ++i) {
    series.samples.push_back(scale * (1.0 + 0.01 * i));
  }
  report.metrics.push_back(std::move(series));
  doc.reports.push_back(std::move(report));
  return doc;
}

TEST(BenchHistory, RoundTripsThroughJson) {
  BenchHistoryDoc doc = MakeDoc("bench_search", 2.0, 5);
  doc.run["host"] = "ci";
  doc.process_metrics_json = "{\"counters\":{\"x\":1}}";
  const std::string json = BenchHistoryDocToJson(doc);
  EXPECT_TRUE(JsonValidate(json)) << json;

  BenchHistoryDoc back;
  std::string error;
  ASSERT_TRUE(ParseBenchHistoryDoc(json, &back, &error)) << error;
  EXPECT_EQ(back.run.at("benchmark"), "bench_search");
  EXPECT_EQ(back.run.at("host"), "ci");
  ASSERT_EQ(back.reports.size(), 1u);
  EXPECT_EQ(back.reports[0].params.at("model"), "lenet");
  ASSERT_EQ(back.reports[0].metrics.size(), 1u);
  const BenchMetricSeries& m = back.reports[0].metrics[0];
  EXPECT_EQ(m.name, "wall_s");
  EXPECT_EQ(m.unit, "s");
  EXPECT_TRUE(m.lower_is_better);
  ASSERT_EQ(m.samples.size(), 5u);
  // Derived stats are recomputed from the samples on parse.
  EXPECT_NEAR(m.median, 2.0 * 1.02, 1e-9);
  EXPECT_NEAR(m.min, 2.0, 1e-9);

  BenchHistoryDoc bogus;
  EXPECT_FALSE(ParseBenchHistoryDoc("{\"schema\":\"other\"}", &bogus, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseBenchHistoryDoc("not json", &bogus));
}

// The acceptance property: an injected 20% slowdown is a hard regression
// (the CLI turns that into a nonzero exit).
TEST(BenchDiff, DetectsInjectedTwentyPercentSlowdown) {
  const BenchHistoryDoc before = MakeDoc("bench_search", 1.0);
  const BenchHistoryDoc after = MakeDoc("bench_search", 1.2);
  const BenchDiffResult diff = DiffBenchReports(before, after, {});
  ASSERT_EQ(diff.entries.size(), 1u);
  EXPECT_EQ(diff.hard_regressions, 1);
  EXPECT_EQ(diff.entries[0].verdict, BenchDiffEntry::Verdict::kHardRegression);
  EXPECT_NEAR(diff.entries[0].rel_delta, 0.2, 1e-9);
  const std::string rendered = RenderBenchDiff(diff, {});
  EXPECT_NE(rendered.find("REGRESSION"), std::string::npos);
  EXPECT_NE(rendered.find("1 hard regression"), std::string::npos);
}

TEST(BenchDiff, MinRepeatsDowngradesHardToWarn) {
  // Same 20% slowdown but only 2 samples per side: big enough to warn,
  // never enough to hard-fail by itself.
  const BenchHistoryDoc before = MakeDoc("bench_search", 1.0, 2);
  const BenchHistoryDoc after = MakeDoc("bench_search", 1.2, 2);
  const BenchDiffResult diff = DiffBenchReports(before, after, {});
  ASSERT_EQ(diff.entries.size(), 1u);
  EXPECT_EQ(diff.hard_regressions, 0);
  EXPECT_EQ(diff.warnings, 1);
  EXPECT_EQ(diff.entries[0].verdict, BenchDiffEntry::Verdict::kWarn);
}

TEST(BenchDiff, SmallDeltaIsOkAndSpeedupIsImprovement) {
  const BenchHistoryDoc base = MakeDoc("bench_search", 1.0);
  const BenchDiffResult ok =
      DiffBenchReports(base, MakeDoc("bench_search", 1.05), {});
  ASSERT_EQ(ok.entries.size(), 1u);
  EXPECT_EQ(ok.entries[0].verdict, BenchDiffEntry::Verdict::kOk);
  EXPECT_EQ(ok.warnings + ok.hard_regressions, 0);

  const BenchDiffResult faster =
      DiffBenchReports(base, MakeDoc("bench_search", 0.8), {});
  EXPECT_EQ(faster.improvements, 1);
  EXPECT_EQ(faster.entries[0].verdict, BenchDiffEntry::Verdict::kImproved);
}

TEST(BenchDiff, HigherIsBetterFlipsTheSign) {
  auto make = [](double value) {
    BenchHistoryDoc doc;
    BenchReport report;
    report.benchmark = "bench_table1";
    report.params = {{"model", "vgg19"}};
    BenchMetricSeries series;
    series.name = "samples_per_s";
    series.unit = "samples/s";
    series.lower_is_better = false;
    series.samples = {value, value, value};
    report.metrics.push_back(std::move(series));
    doc.reports.push_back(std::move(report));
    return doc;
  };
  // Throughput dropping 30% is the regression; rising 30% is improvement.
  const BenchDiffResult worse = DiffBenchReports(make(100.0), make(70.0), {});
  ASSERT_EQ(worse.entries.size(), 1u);
  EXPECT_EQ(worse.entries[0].verdict,
            BenchDiffEntry::Verdict::kHardRegression);
  EXPECT_NEAR(worse.entries[0].rel_delta, 0.3, 1e-9);
  const BenchDiffResult better = DiffBenchReports(make(100.0), make(130.0), {});
  EXPECT_EQ(better.entries[0].verdict, BenchDiffEntry::Verdict::kImproved);
}

// A 0/1 flag that was off has a zero baseline, so turning it on is an
// unbounded move: a hard regression for a lower-is-better flag whatever the
// threshold. Staying off is no change.
TEST(BenchDiff, FlagLeavingZeroIsUnbounded) {
  auto make = [](double value) {
    BenchHistoryDoc doc;
    BenchReport report;
    report.benchmark = "bench_table1";
    report.params = {{"model", "bert_large"}, {"cluster", "1x8"}};
    BenchMetricSeries series;
    series.name = "fastt_oom";
    series.unit = "flag";
    series.samples = {value};
    report.metrics.push_back(std::move(series));
    doc.reports.push_back(std::move(report));
    return doc;
  };
  BenchDiffOptions gate;
  gate.threshold = 1e6;
  gate.min_repeats = 1;
  const BenchDiffResult on = DiffBenchReports(make(0.0), make(1.0), gate);
  ASSERT_EQ(on.entries.size(), 1u);
  EXPECT_EQ(on.entries[0].verdict, BenchDiffEntry::Verdict::kHardRegression);
  const BenchDiffResult off = DiffBenchReports(make(0.0), make(0.0), gate);
  EXPECT_EQ(off.entries[0].verdict, BenchDiffEntry::Verdict::kOk);
  EXPECT_EQ(off.entries[0].rel_delta, 0.0);
}

// Allocation metrics ride the same (benchmark, params, name) matching as
// timing metrics, so an injected allocation-count regression hard-fails the
// diff exactly like a slowdown — and byte-valued cells render human-readable.
TEST(BenchDiff, InjectedAllocationRegressionIsHard) {
  auto make = [](double allocs, double peak_bytes) {
    BenchHistoryDoc doc;
    BenchReport report;
    report.benchmark = "bench_search";
    report.params = {{"model", "lenet"}, {"gpus", "2"}};
    BenchMetricSeries a;
    a.name = "osdpos_allocs";
    a.unit = "count";
    a.lower_is_better = true;
    a.samples = {allocs, allocs, allocs};
    BenchMetricSeries p;
    p.name = "osdpos_peak_bytes";
    p.unit = "bytes";
    p.lower_is_better = true;
    p.samples = {peak_bytes, peak_bytes, peak_bytes};
    report.metrics = {std::move(a), std::move(p)};
    doc.reports.push_back(std::move(report));
    return doc;
  };
  // Allocation count doubles, peak bytes stay put: exactly one hard fail.
  const BenchDiffResult diff =
      DiffBenchReports(make(5000.0, 1 << 20), make(10000.0, 1 << 20), {});
  ASSERT_EQ(diff.entries.size(), 2u);
  EXPECT_EQ(diff.hard_regressions, 1);
  EXPECT_EQ(diff.entries[0].metric, "osdpos_allocs");
  EXPECT_EQ(diff.entries[0].verdict, BenchDiffEntry::Verdict::kHardRegression);
  EXPECT_EQ(diff.entries[1].verdict, BenchDiffEntry::Verdict::kOk);

  const std::string rendered = RenderBenchDiff(diff, {});
  EXPECT_NE(rendered.find("REGRESSION"), std::string::npos);
  EXPECT_NE(rendered.find("1.00 MiB"), std::string::npos) << rendered;

  // A peak-bytes blowup is caught the same way.
  const BenchDiffResult bytes_diff =
      DiffBenchReports(make(5000.0, 1 << 20), make(5000.0, 8 << 20), {});
  EXPECT_EQ(bytes_diff.hard_regressions, 1);
  EXPECT_EQ(bytes_diff.entries[0].metric, "osdpos_peak_bytes");
}

TEST(BenchDiff, UnmatchedCellsAreInformational) {
  BenchHistoryDoc old_doc = MakeDoc("bench_search", 1.0);
  BenchHistoryDoc new_doc = MakeDoc("bench_search", 1.0);
  new_doc.reports[0].params["gpus"] = "4";  // different cell on each side
  const BenchDiffResult diff = DiffBenchReports(old_doc, new_doc, {});
  EXPECT_EQ(diff.unmatched, 2);
  EXPECT_EQ(diff.hard_regressions, 0);
  for (const BenchDiffEntry& e : diff.entries) {
    EXPECT_EQ(e.verdict, BenchDiffEntry::Verdict::kUnmatched);
  }
}

TEST(BenchHistory, AppendToHistorySequences) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "fastt_bench_history_test")
          .string();
  std::filesystem::remove_all(dir);
  const BenchHistoryDoc doc = MakeDoc("bench_search", 1.0);
  const std::string p1 = AppendToHistory(dir, "bench_search", doc);
  const std::string p2 = AppendToHistory(dir, "bench_search", doc);
  EXPECT_NE(p1.find("bench_search-0001.json"), std::string::npos) << p1;
  EXPECT_NE(p2.find("bench_search-0002.json"), std::string::npos) << p2;
  BenchHistoryDoc back;
  EXPECT_TRUE(ReadBenchHistoryDoc(p2, &back));
  EXPECT_EQ(back.reports.size(), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fastt
