// Micro-benchmarks (google-benchmark) for the algorithmic building blocks:
// DPOS scheduling throughput vs. graph size and device count, OS-DPOS split
// probing, the graph rewrite and graph copies, the discrete-event executor,
// and rank computation. These back DESIGN.md's claim that FastT's complexity
// is linear in ops x devices.
//
// When FASTT_BENCH_JSON names a path, per-iteration real times are also
// written there as a fastt-bench/1 document (one report per benchmark, one
// sample per repetition — run with --benchmark_repetitions=N to give
// `fastt bench-diff` enough samples to hard-fail).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "core/data_parallel.h"
#include "core/os_dpos.h"
#include "core/rank.h"
#include "graph/rewrite.h"
#include "models/model_zoo.h"
#include "obs/bench_history.h"
#include "sim/profiler.h"

namespace fastt {
namespace {

struct Prepared {
  Graph graph;
  Cluster cluster;
  CompCostModel comp;
  CommCostModel comm;
  std::vector<DeviceId> placement;
};

Prepared PrepareModel(const std::string& name, int gpus) {
  const ModelSpec& spec = FindModel(name);
  Prepared p{Graph{}, Cluster::SingleServer(gpus), {}, {}, {}};
  auto dp = BuildDataParallel(spec.build, spec.name, spec.strong_batch,
                              gpus, Scaling::kStrong);
  // Placement must be derived before the graph is moved out of `dp`.
  p.placement = CanonicalDataParallelPlacement(dp);
  p.graph = std::move(dp.graph);
  for (int i = 0; i < 2; ++i) {
    SimOptions so;
    so.seed = 50 + static_cast<uint64_t>(i);
    const RunProfile profile =
        ExtractProfile(p.graph, Simulate(p.graph, p.placement, p.cluster, so));
    p.comp.AddProfile(profile);
    p.comm.AddProfile(profile);
  }
  return p;
}

void BM_Dpos(benchmark::State& state, const std::string& model) {
  const int gpus = static_cast<int>(state.range(0));
  Prepared p = PrepareModel(model, gpus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dpos(p.graph, p.cluster, p.comp, p.comm));
  }
  state.counters["ops"] = p.graph.num_live_ops();
}

void BM_OsDpos(benchmark::State& state) {
  Prepared p = PrepareModel("alexnet", static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(OsDpos(p.graph, p.cluster, p.comp, p.comm));
  }
}

void BM_Simulate(benchmark::State& state, const std::string& model) {
  Prepared p = PrepareModel(model, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Simulate(p.graph, p.placement, p.cluster));
  }
  state.counters["ops"] = p.graph.num_live_ops();
}

void BM_SplitOperation(benchmark::State& state) {
  const ModelSpec& spec = FindModel("vgg19");
  const Graph base = BuildSingle(spec, 64);
  const OpId conv = base.FindOp("conv3_1");
  for (auto _ : state) {
    Graph g = base;
    benchmark::DoNotOptimize(
        SplitOperation(g, conv, SplitDim::kBatch,
                       static_cast<int>(state.range(0))));
  }
}

// A graph copy as OS-DPOS makes one per lane: copy the DP graph, split one
// op on the copy (the first write clones the chunks it touches) and free it.
void BM_GraphCopy(benchmark::State& state, const std::string& model) {
  const ModelSpec& spec = FindModel(model);
  const Graph base =
      BuildDataParallel(spec.build, spec.name, spec.strong_batch,
                        static_cast<int>(state.range(0)), Scaling::kStrong)
          .graph;
  std::vector<OpId> splittable;
  for (OpId id : base.LiveOps())
    if (CanSplit(base, id, SplitDim::kBatch, 2)) splittable.push_back(id);
  const OpId target = splittable[splittable.size() / 2];
  for (auto _ : state) {
    Graph g = base;
    benchmark::DoNotOptimize(SplitOperation(g, target, SplitDim::kBatch, 2));
  }
  state.counters["ops"] = base.num_live_ops();
}

void BM_RankU(benchmark::State& state) {
  Prepared p = PrepareModel("resnet200", 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeRankU(p.graph, p.comp, p.comm, 4));
  }
}

BENCHMARK_CAPTURE(BM_Dpos, vgg19, "vgg19")->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_Dpos, resnet200, "resnet200")->Arg(2)->Arg(4);
// The headline size: bert_large data-parallel over 8 GPUs (~19k ops).
BENCHMARK_CAPTURE(BM_Dpos, bert, "bert_large")->Arg(8);
BENCHMARK(BM_OsDpos)->Arg(2)->Arg(4);
BENCHMARK_CAPTURE(BM_Simulate, vgg19, "vgg19")->Arg(2)->Arg(4);
BENCHMARK_CAPTURE(BM_Simulate, bert, "bert_large")->Arg(2)->Arg(8);
BENCHMARK(BM_SplitOperation)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_GraphCopy, bert, "bert_large")->Arg(8);
BENCHMARK(BM_RankU);

// Console output as usual, plus per-iteration real times captured for the
// optional FASTT_BENCH_JSON report. Aggregate rows (mean/median/stddev) are
// skipped — bench-diff recomputes its own stats from the samples.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      samples_[run.benchmark_name()].push_back(run.GetAdjustedRealTime());
    }
  }

  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

void MaybeWriteBenchJson(const CapturingReporter& reporter) {
  const char* path = std::getenv("FASTT_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  BenchHistoryDoc doc;
  doc.run["benchmark"] = "bench_micro";
  for (const auto& [name, samples] : reporter.samples()) {
    BenchReport report;
    report.benchmark = "bench_micro";
    report.params = {{"name", name}};
    BenchMetricSeries series;
    series.name = "real_time_ns";
    series.unit = "ns";
    series.lower_is_better = true;
    series.samples = samples;
    report.metrics.push_back(std::move(series));
    doc.reports.push_back(std::move(report));
  }
  WriteBenchHistoryDoc(doc, path);
  std::printf("wrote benchmark JSON to %s\n", path);
}

}  // namespace
}  // namespace fastt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  fastt::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  fastt::MaybeWriteBenchJson(reporter);
  return 0;
}
