#include "obs/bench_history.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/build_info.h"
#include "obs/json.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace fastt {

void BenchMetricSeries::Finalize() {
  // One ComputeSampleStats call sorts once and derives every field —
  // previously each Percentile call re-sorted the series.
  const SampleStats stats = ComputeSampleStats(samples);
  median = stats.p50;
  p90 = stats.p90;
  min = stats.min;
  mean = stats.mean;
}

std::string BenchHistoryDocToJson(const BenchHistoryDoc& doc) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("fastt-bench/1");
  w.Key("build");
  WriteBuildInfo(w);
  w.Key("run").BeginObject();
  for (const auto& [k, v] : doc.run) w.Key(k).String(v);
  w.EndObject();
  w.Key("reports").BeginArray();
  for (const BenchReport& report : doc.reports) {
    w.BeginObject();
    w.Key("benchmark").String(report.benchmark);
    w.Key("params").BeginObject();
    for (const auto& [k, v] : report.params) w.Key(k).String(v);
    w.EndObject();
    w.Key("metrics").BeginArray();
    for (BenchMetricSeries metric : report.metrics) {
      metric.Finalize();
      w.BeginObject();
      w.Key("name").String(metric.name);
      w.Key("unit").String(metric.unit);
      w.Key("lower_is_better").Bool(metric.lower_is_better);
      w.Key("samples").BeginArray();
      for (const double s : metric.samples) w.Number(s);
      w.EndArray();
      w.Key("median").Number(metric.median);
      w.Key("p90").Number(metric.p90);
      w.Key("min").Number(metric.min);
      w.Key("mean").Number(metric.mean);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  if (!doc.process_metrics_json.empty())
    w.Key("process_metrics").Raw(doc.process_metrics_json);
  w.EndObject();
  return w.str();
}

void WriteBenchHistoryDoc(const BenchHistoryDoc& doc,
                          const std::string& path) {
  std::ofstream file(path);
  file << BenchHistoryDocToJson(doc) << "\n";
}

bool ParseBenchHistoryDoc(const std::string& json, BenchHistoryDoc* out,
                          std::string* error) {
  *out = BenchHistoryDoc{};
  JsonValue root;
  if (!JsonParse(json, &root, error)) return false;
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->StringOr("") != "fastt-bench/1") {
    if (error) *error = "not a fastt-bench/1 document";
    return false;
  }
  if (const JsonValue* run = root.Find("run"); run && run->is_object()) {
    for (const auto& [k, v] : run->fields) {
      if (v.is_string()) out->run[k] = v.str_v;
    }
  }
  const JsonValue* reports = root.Find("reports");
  if (reports == nullptr || !reports->is_array()) {
    if (error) *error = "missing reports array";
    return false;
  }
  for (const JsonValue& r : reports->items) {
    BenchReport report;
    if (const JsonValue* b = r.Find("benchmark")) {
      report.benchmark = b->StringOr("");
    }
    if (const JsonValue* params = r.Find("params");
        params && params->is_object()) {
      for (const auto& [k, v] : params->fields) {
        report.params[k] = v.is_string() ? v.str_v : JsonNumber(v.num_v);
      }
    }
    if (const JsonValue* metrics = r.Find("metrics");
        metrics && metrics->is_array()) {
      for (const JsonValue& m : metrics->items) {
        BenchMetricSeries series;
        if (const JsonValue* n = m.Find("name")) series.name = n->StringOr("");
        if (const JsonValue* u = m.Find("unit")) series.unit = u->StringOr("");
        if (const JsonValue* l = m.Find("lower_is_better")) {
          series.lower_is_better =
              l->kind != JsonValue::Kind::kBool || l->bool_v;
        }
        if (const JsonValue* samples = m.Find("samples");
            samples && samples->is_array()) {
          for (const JsonValue& s : samples->items) {
            if (s.is_number()) series.samples.push_back(s.num_v);
          }
        }
        // Stats are derived data; recompute rather than trusting the file.
        series.Finalize();
        report.metrics.push_back(std::move(series));
      }
    }
    out->reports.push_back(std::move(report));
  }
  return true;
}

bool ReadBenchHistoryDoc(const std::string& path, BenchHistoryDoc* out,
                         std::string* error) {
  std::ifstream file(path);
  if (!file) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::stringstream buf;
  buf << file.rdbuf();
  return ParseBenchHistoryDoc(buf.str(), out, error);
}

namespace {

std::string ParamsKey(const std::map<std::string, std::string>& params) {
  std::string key;
  for (const auto& [k, v] : params) {
    if (!key.empty()) key += ' ';
    key += k + "=" + v;
  }
  return key;
}

}  // namespace

BenchDiffResult DiffBenchReports(const BenchHistoryDoc& old_doc,
                                 const BenchHistoryDoc& new_doc,
                                 const BenchDiffOptions& options) {
  using Verdict = BenchDiffEntry::Verdict;
  BenchDiffResult result;

  struct Cell {
    BenchMetricSeries series;  // finalized copy: stats derive from samples
    std::string benchmark;
    std::string params;
  };
  // (benchmark, params, metric) -> series
  std::map<std::string, Cell> old_cells;
  auto cell_key = [](const std::string& bench, const std::string& params,
                     const std::string& metric) {
    return bench + "\x1f" + params + "\x1f" + metric;
  };
  for (const BenchReport& r : old_doc.reports) {
    const std::string params = ParamsKey(r.params);
    for (BenchMetricSeries m : r.metrics) {
      m.Finalize();
      const std::string key = cell_key(r.benchmark, params, m.name);
      old_cells[key] = {std::move(m), r.benchmark, params};
    }
  }

  for (const BenchReport& r : new_doc.reports) {
    const std::string params = ParamsKey(r.params);
    for (BenchMetricSeries m : r.metrics) {
      m.Finalize();
      BenchDiffEntry entry;
      entry.benchmark = r.benchmark;
      entry.params = params;
      entry.metric = m.name;
      entry.unit = m.unit;
      entry.new_median = m.median;
      entry.new_samples = static_cast<int>(m.samples.size());

      auto it = old_cells.find(cell_key(r.benchmark, params, m.name));
      if (it == old_cells.end()) {
        entry.verdict = Verdict::kUnmatched;
        ++result.unmatched;
        result.entries.push_back(entry);
        continue;
      }
      const BenchMetricSeries old_m = std::move(it->second.series);
      old_cells.erase(it);
      entry.old_median = old_m.median;
      entry.old_samples = static_cast<int>(old_m.samples.size());
      if (old_m.median == m.median) {
        entry.verdict = Verdict::kOk;
        result.entries.push_back(entry);
        continue;
      }
      // A zero baseline has no scale: a move off it (a 0/1 flag turning
      // on, say) is unboundedly worse or better.
      const double raw =
          old_m.median == 0.0
              ? (m.median > 0.0 ? 1.0 : -1.0) *
                    std::numeric_limits<double>::infinity()
              : (m.median - old_m.median) / old_m.median;
      entry.rel_delta = m.lower_is_better ? raw : -raw;  // >0 = worse
      // Comparisons get a ulp of slack so a delta that is exactly the
      // threshold (up to rounding of the division) still counts.
      constexpr double kEps = 1e-12;
      if (entry.rel_delta >= options.threshold * options.hard_factor - kEps &&
          entry.old_samples >= options.min_repeats &&
          entry.new_samples >= options.min_repeats) {
        entry.verdict = Verdict::kHardRegression;
        ++result.hard_regressions;
      } else if (entry.rel_delta >= options.threshold - kEps) {
        entry.verdict = Verdict::kWarn;
        ++result.warnings;
      } else if (entry.rel_delta <= -(options.threshold - kEps)) {
        entry.verdict = Verdict::kImproved;
        ++result.improvements;
      }
      result.entries.push_back(entry);
    }
  }
  // Old-side metrics that vanished from the new report.
  for (const auto& [key, cell] : old_cells) {
    BenchDiffEntry entry;
    entry.benchmark = cell.benchmark;
    entry.params = cell.params;
    entry.metric = cell.series.name;
    entry.unit = cell.series.unit;
    entry.old_median = cell.series.median;
    entry.old_samples = static_cast<int>(cell.series.samples.size());
    entry.verdict = Verdict::kUnmatched;
    ++result.unmatched;
    result.entries.push_back(entry);
  }

  std::sort(result.entries.begin(), result.entries.end(),
            [](const BenchDiffEntry& a, const BenchDiffEntry& b) {
              if (a.rel_delta != b.rel_delta) return a.rel_delta > b.rel_delta;
              if (a.benchmark != b.benchmark) return a.benchmark < b.benchmark;
              if (a.params != b.params) return a.params < b.params;
              return a.metric < b.metric;
            });
  return result;
}

std::string RenderBenchDiff(const BenchDiffResult& result,
                            const BenchDiffOptions& options) {
  using Verdict = BenchDiffEntry::Verdict;
  TablePrinter table({"benchmark", "cell", "metric", "old", "new", "delta %",
                      "n", "verdict"});
  for (const BenchDiffEntry& e : result.entries) {
    std::string verdict;
    switch (e.verdict) {
      case Verdict::kOk: verdict = "ok"; break;
      case Verdict::kImproved: verdict = "improved"; break;
      case Verdict::kWarn: verdict = "WARN"; break;
      case Verdict::kHardRegression: verdict = "REGRESSION"; break;
      case Verdict::kUnmatched: verdict = "unmatched"; break;
    }
    // Byte-valued metrics render human-readable; everything else raw.
    auto value = [&](double v, int samples) -> std::string {
      if (samples <= 0) return "-";
      return e.unit == "bytes" ? HumanBytes(v) : StrFormat("%.4g", v);
    };
    table.AddRow(
        {e.benchmark, e.params, e.metric,
         value(e.old_median, e.old_samples),
         value(e.new_median, e.new_samples),
         e.old_samples > 0 && e.new_samples > 0
             ? StrFormat("%+.1f", 100.0 * e.rel_delta)
             : "-",
         StrFormat("%d/%d", e.old_samples, e.new_samples), verdict});
  }
  std::string out = table.Render();
  out += StrFormat(
      "\n%d hard regression(s) (>= %.0f%%, both sides >= %d samples), "
      "%d warning(s) (>= %.0f%%), %d improvement(s), %d unmatched\n",
      result.hard_regressions, 100.0 * options.threshold * options.hard_factor,
      options.min_repeats, result.warnings, 100.0 * options.threshold,
      result.improvements, result.unmatched);
  return out;
}

std::string AppendToHistory(const std::string& dir, const std::string& label,
                            const BenchHistoryDoc& doc) {
  std::filesystem::create_directories(dir);
  int seq = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string stem = entry.path().stem().string();
    const size_t dash = stem.rfind('-');
    if (dash == std::string::npos || stem.substr(0, dash) != label) continue;
    seq = std::max(seq, std::atoi(stem.c_str() + dash + 1));
  }
  const std::string path =
      (std::filesystem::path(dir) / StrFormat("%s-%04d.json", label.c_str(),
                                              seq + 1))
          .string();
  WriteBenchHistoryDoc(doc, path);
  return path;
}

}  // namespace fastt
