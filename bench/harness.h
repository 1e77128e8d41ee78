// Shared helpers for the per-table / per-figure benchmark binaries. Each
// binary regenerates one table or figure of the paper's evaluation section
// and prints rows in the paper's format (see EXPERIMENTS.md for the
// paper-vs-measured comparison).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/portfolio.h"
#include "core/strategy_calculator.h"
#include "models/model_zoo.h"
#include "obs/bench_history.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/strings.h"
#include "util/table.h"

namespace fastt::bench {

struct Config {
  std::string label;  // "4GPUs", "8GPUs (2servers)", ...
  Cluster cluster;
};

inline std::vector<Config> Table1Configs() {
  return {
      {"1 GPU", Cluster::SingleServer(1)},
      {"2GPUs", Cluster::SingleServer(2)},
      {"4GPUs", Cluster::SingleServer(4)},
      {"8GPUs", Cluster::SingleServer(8)},
      {"8GPUs (2servers)", Cluster::MultiServer(2, 4)},
  };
}

inline std::vector<Config> Table2Configs() {
  return {
      {"1 GPU", Cluster::SingleServer(1)},
      {"2GPUs", Cluster::SingleServer(2)},
      {"4GPUs", Cluster::SingleServer(4)},
      {"8GPUs", Cluster::SingleServer(8)},
      {"16GPUs (2servers)", Cluster::MultiServer(2, 8)},
  };
}

struct Cell {
  double dp = 0.0;     // samples/s, the DP baseline's noisy measured steps
  double fastt = 0.0;  // samples/s, FastT's noise-free replay; 0 when OOM
};

// Every measured cell, in measurement order, for the optional JSON report.
// Besides the two speeds it carries the quality of FastT's returned
// strategy: its noise-free replay (ResimulateIteration; infinite when it
// runs out of memory) and the search's round counts.
struct CellRecord {
  std::string model;
  std::string cluster;
  int64_t batch = 0;
  Scaling scaling = Scaling::kStrong;
  Cell cell;
  double fastt_replay_s = 0.0;
  int rounds = 0;
  int committed_rounds = 0;
  int oom_rollbacks = 0;
};

inline std::vector<CellRecord>& CellRecords() {
  static std::vector<CellRecord> records;
  return records;
}

inline Cell MeasureCell(const ModelSpec& spec, const Cluster& cluster,
                        int64_t batch, Scaling scaling,
                        const CalculatorOptions& base = {}) {
  CalculatorOptions options = base;
  Cell cell;
  const auto dp = RunDataParallelBaseline(spec.build, spec.name, batch,
                                          scaling, cluster, options);
  cell.dp = SamplesPerSecond(dp);
  const auto ft =
      RunFastT(spec.build, spec.name, batch, scaling, cluster, options);
  SearchResult returned;
  returned.graph = ft.graph;
  returned.placement = ft.strategy.placement;
  returned.execution_order = ft.strategy.execution_order;
  const double replay_s = ResimulateIteration(returned, cluster);
  // FastT's speed is read from the replay the quality gate reads, so the
  // printed table and the gate cannot disagree on a cell's direction.
  cell.fastt = std::isfinite(replay_s)
                   ? static_cast<double>(ft.global_batch) /
                         (replay_s + kSessionOverheadS)
                   : 0.0;
  CellRecord record{spec.name, cluster.ToString(), batch, scaling, cell};
  record.fastt_replay_s = replay_s;
  record.rounds = ft.rounds;
  for (const RoundSummary& round : ft.round_history) {
    record.committed_rounds += round.committed ? 1 : 0;
    record.oom_rollbacks += round.oom ? 1 : 0;
  }
  CellRecords().push_back(std::move(record));
  return cell;
}

// If FASTT_BENCH_JSON names a path, writes every measured cell plus the
// process metrics registry there as one fastt-bench/1 document (see
// obs/bench_history.h) — diffable with `fastt bench-diff`. Call at the end
// of a benchmark's main().
inline void MaybeWriteBenchJson(const std::string& bench_name) {
  const char* path = std::getenv("FASTT_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  BenchHistoryDoc doc;
  doc.run["benchmark"] = bench_name;
  for (const CellRecord& r : CellRecords()) {
    BenchReport report;
    report.benchmark = bench_name;
    report.params = {
        {"model", r.model},
        {"cluster", r.cluster},
        {"batch", StrFormat("%lld", (long long)r.batch)},
        {"scaling", r.scaling == Scaling::kStrong ? "strong" : "weak"},
    };
    auto add = [&](const char* name, const char* unit, bool lower_is_better,
                   double value) {
      BenchMetricSeries series;
      series.name = name;
      series.unit = unit;
      series.lower_is_better = lower_is_better;
      series.samples = {value};
      report.metrics.push_back(std::move(series));
    };
    add("dp_samples_per_s", "samples/s", false, r.cell.dp);
    add("fastt_samples_per_s", "samples/s", false, r.cell.fastt);
    // An OOM strategy has no replay time: the series is left out and the
    // flag says why.
    const bool oom = !std::isfinite(r.fastt_replay_s);
    if (!oom) add("fastt_replay_s", "s", true, r.fastt_replay_s);
    add("fastt_oom", "flag", true, oom ? 1.0 : 0.0);
    add("fastt_rounds", "count", true, r.rounds);
    add("fastt_committed_rounds", "count", false, r.committed_rounds);
    add("fastt_oom_rollbacks", "count", true, r.oom_rollbacks);
    doc.reports.push_back(std::move(report));
  }
  doc.process_metrics_json = MetricsRegistry::Global().ToJson();
  WriteBenchHistoryDoc(doc, path);
  std::printf("wrote benchmark JSON to %s\n", path);
}

inline std::string Speed(double samples_per_s) {
  return StrFormat("%.1f", samples_per_s);
}

inline std::string Pct(double ratio) {
  return StrFormat("%.1f%%", 100.0 * (ratio - 1.0));
}

}  // namespace fastt::bench
