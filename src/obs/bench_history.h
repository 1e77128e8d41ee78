// Schema and comparator for FASTT_BENCH_JSON reports, so the bench suite
// becomes a tracked, diffable time series instead of write-only output.
//
// Document ("fastt-bench/1"):
//   {"schema": "fastt-bench/1",
//    "run": {"label": ..., "host_cores": N, ...},          // free-form strings
//    "reports": [
//      {"benchmark": "bench_search",
//       "params": {"model": "lenet", "gpus": "2", ...},
//       "metrics": [
//         {"name": "osdpos_wall_s", "unit": "s", "lower_is_better": true,
//          "samples": [..], "median": .., "p90": .., "min": .., "mean": ..}]}]}
//
// DiffBenchReports matches (benchmark, params, metric name) across two
// documents and compares medians: a relative delta in the bad direction of
// at least `threshold` is a warning, `threshold * hard_factor` a hard
// regression — but hard only when both sides have at least `min_repeats`
// samples, so a single noisy run can warn yet never fail CI by itself. A
// move off a zero baseline counts as an unbounded relative delta.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fastt {

struct BenchMetricSeries {
  std::string name;
  std::string unit;            // "s", "ns", "samples/s", ...
  bool lower_is_better = true;
  std::vector<double> samples;

  // Derived over `samples` (recomputed by Finalize / on parse).
  double median = 0.0;
  double p90 = 0.0;
  double min = 0.0;
  double mean = 0.0;

  void Finalize();  // fills the derived stats from samples
};

struct BenchReport {
  std::string benchmark;                      // producing binary / table
  std::map<std::string, std::string> params;  // configuration cell
  std::vector<BenchMetricSeries> metrics;
};

struct BenchHistoryDoc {
  std::map<std::string, std::string> run;  // free-form run metadata
  std::vector<BenchReport> reports;
  // Optional raw JSON object (the process metrics registry) spliced in
  // verbatim under "process_metrics"; opaque to the comparator.
  std::string process_metrics_json;
};

// Serializes with every metric's derived stats recomputed from samples.
std::string BenchHistoryDocToJson(const BenchHistoryDoc& doc);
void WriteBenchHistoryDoc(const BenchHistoryDoc& doc, const std::string& path);

// Parses a fastt-bench/1 document; false + `error` on malformed input or a
// wrong/missing schema tag.
bool ParseBenchHistoryDoc(const std::string& json, BenchHistoryDoc* out,
                          std::string* error = nullptr);
bool ReadBenchHistoryDoc(const std::string& path, BenchHistoryDoc* out,
                         std::string* error = nullptr);

struct BenchDiffOptions {
  double threshold = 0.10;   // relative regression that earns a warning
  double hard_factor = 2.0;  // hard failure at threshold * hard_factor
  int min_repeats = 3;       // samples required on both sides to hard-fail
};

struct BenchDiffEntry {
  enum class Verdict { kOk, kImproved, kWarn, kHardRegression, kUnmatched };
  std::string benchmark;
  std::string params;       // rendered "k=v k=v" cell key
  std::string metric;
  std::string unit;
  double old_median = 0.0;
  double new_median = 0.0;
  double rel_delta = 0.0;   // >0 means worse, sign-adjusted by direction
  int old_samples = 0;
  int new_samples = 0;
  Verdict verdict = Verdict::kOk;
};

struct BenchDiffResult {
  std::vector<BenchDiffEntry> entries;  // worst first
  int warnings = 0;
  int hard_regressions = 0;
  int improvements = 0;
  int unmatched = 0;  // metric present on one side only (informational)
};

BenchDiffResult DiffBenchReports(const BenchHistoryDoc& old_doc,
                                 const BenchHistoryDoc& new_doc,
                                 const BenchDiffOptions& options = {});

std::string RenderBenchDiff(const BenchDiffResult& result,
                            const BenchDiffOptions& options);

// Appends `doc` to `dir` as <label>-<seq>.json (0001, 0002, ...) so the
// history directory stays sorted by arrival. Returns the written path.
std::string AppendToHistory(const std::string& dir, const std::string& label,
                            const BenchHistoryDoc& doc);

}  // namespace fastt
