// fastt — command-line front end for the library.
//
//   fastt models
//       List the model zoo with Table 1/2 batch sizes and graph statistics.
//   fastt run <model> [--gpus N] [--servers S] [--batch B] [--weak]
//       Run the full FastT workflow and report the strategy + throughput.
//   fastt compare <model> [--gpus N] [--servers S] [--batch B]
//       DP (shared-variable), ring-allreduce DP, model parallel, the
//       pipeline at |D| and 2|D| micro-batches and FastT side by side, each
//       simulated noise-free under the order it is returned with.
//   fastt export <model> <graph.txt> [--batch B]
//       Serialize the training graph to the text format.
//   fastt trace <model> <trace.json> [--gpus N]
//       Run FastT and dump the final schedule as a Chrome trace (with flow
//       arrows for tensor transfers and per-device memory counter tracks).
//   fastt analyze <model> [--gpus N] [--servers S] [--batch B]
//       Run FastT and report the realized critical path, per-device
//       utilization/bubble breakdown, top critical ops/transfers, link
//       traffic and the per-round cost-model calibration summary.
//   fastt explain <model> --op <name> [--gpus N] [--batch B]
//       Run FastT with provenance recording and show, for every committed
//       op whose name contains <name>, the candidate devices DPOS scored,
//       the chosen device with its reason code, the split trials probed and
//       predicted-vs-realized execution time.
//   fastt calibrate <model> [--gpus N] [--batch B]
//       Run FastT and report how wrong the cost models were each
//       pre-training round: per-op/per-transfer residual histograms,
//       comm-regression drift and rollback post-mortems.
//   fastt bench-diff <old.json> <new.json> [--threshold T] [--min-repeats R]
//       Compare two fastt-bench/1 reports (FASTT_BENCH_JSON output).
//       Exits nonzero on a hard regression — the CI gate.
//   fastt verify <model> [--strategy f] [--gpus N] [--batch B]
//       Run the full strategy verifier (analysis/verifier.h rule catalog)
//       over a strategy for <model>: with --strategy, a serialized strategy
//       file whose split list is re-applied to the base graph; without, the
//       strategy a pre-training round would compute (bootstrap profile +
//       OS-DPOS). Exits nonzero when any error-severity rule fires.
//   fastt arena <model> [--gpus N] [--batch B] [--budget-ms T]
//       Race every registered searcher (FastT's DPOS pipeline, the Fig. 3
//       black-box stand-ins, and the published-rival schedulers) on the
//       shared search pool under a wall-clock budget, verify every
//       candidate, and report the per-searcher table plus the winning
//       verified strategy's diagnostics. Exits nonzero when no candidate
//       passes verification.
//
//   fastt report <model> [report.json] [--gpus N] [--batch B] [--jobs N]
//       Run the full FastT workflow inside a fresh TelemetryContext with the
//       tracer, heap tracker and sampling CPU profiler on, print the search
//       phase self-time table and the top CPU frames, and write the richest
//       fastt-report/1 bundle: metrics (the mem/<tag>/* heap gauges among
//       them), workflow events, calibration, verifier summary, trace phase
//       self-times and the CPU profile in one JSON document. With
//       --trace-search the same trace is also written as a Chrome trace,
//       with mem/<tag>/live_bytes counter tracks next to the spans.
//
// Every command also accepts `--jobs N` (or FASTT_JOBS=N) to parallelize the
// strategy search across N threads — the computed strategy is bit-identical
// to --jobs 1 — plus the global flags:
//   --report <out.json>       one fastt-report/1 bundle of whatever the
//                             command ran: metrics, events and the command's
//                             own section (analysis, provenance,
//                             calibration, verify or arena)
//   --log-level <level>       error|warn|info|debug (or FASTT_LOG_LEVEL)
//   --trace-search <out.json> records the strategy search itself as a
//                             Chrome trace
//
// An argument the CLI cannot place (an unknown flag, a flag without its
// value, a malformed number, a third positional) and a cluster, batch or
// jobs value it cannot honour print one line and exit 2. A run that fails
// verification or cannot write its output exits 1.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/verifier.h"
#include "baselines/allreduce_dp.h"
#include "baselines/searcher_registry.h"
#include "core/data_parallel.h"
#include "core/portfolio.h"
#include "core/model_parallel.h"
#include "core/os_dpos.h"
#include "core/pipeline.h"
#include "core/strategy_calculator.h"
#include "core/strategy_io.h"
#include "graph/rewrite.h"
#include "graph/serialize.h"
#include "models/model_zoo.h"
#include "obs/bench_history.h"
#include "obs/build_info.h"
#include "obs/calibration.h"
#include "obs/context.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof_export.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/provenance.h"
#include "obs/schedule_analysis.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"
#include "sim/exec_sim.h"
#include "sim/profiler.h"
#include "sim/trace.h"
#include "util/memtrack.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace fastt;

namespace {

struct Args {
  std::string command;
  std::string model;
  std::string path;
  std::string op;            // --op: op-name filter for `fastt explain`
  std::string strategy_path;  // --strategy: serialized strategy for `verify`
  std::string report_path;   // --report: fastt-report/1 bundle
  std::string log_level;     // --log-level: error|warn|info|debug
  std::string trace_search_path;  // --trace-search: search Chrome trace
  int gpus = 4;
  int servers = 1;
  int jobs = 0;  // --jobs: search threads; 0 = keep FASTT_JOBS / default
  int budget_ms = 2000;  // --budget-ms: arena wall-clock budget per racer
  int64_t batch = 0;  // 0 = model default
  Scaling scaling = Scaling::kStrong;
  BenchDiffOptions diff;  // bench-diff: --threshold / --min-repeats / ...
};

bool ParseValue(const char* text, std::string* out) {
  *out = text;
  return true;
}

// The whole of `text` must be the number.
template <typename T>
bool ParseValue(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

// Fills `args` from argv. Returns "" on success, else one line naming the
// argument it could not place.
std::string Parse(int argc, char** argv, Args* args) {
  if (argc > 1) args->command = argv[1];
  const std::pair<const char*, std::string*> text_flags[] = {
      {"--op", &args->op},
      {"--strategy", &args->strategy_path},
      {"--report", &args->report_path},
      {"--log-level", &args->log_level},
      {"--trace-search", &args->trace_search_path},
  };
  const std::pair<const char*, int*> int_flags[] = {
      {"--gpus", &args->gpus},
      {"--servers", &args->servers},
      {"--jobs", &args->jobs},
      {"--budget-ms", &args->budget_ms},
      {"--min-repeats", &args->diff.min_repeats},
  };
  const std::pair<const char*, int64_t*> int64_flags[] = {
      {"--batch", &args->batch},
  };
  const std::pair<const char*, double*> real_flags[] = {
      {"--threshold", &args->diff.threshold},
      {"--hard-factor", &args->diff.hard_factor},
  };
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--weak") {
      args->scaling = Scaling::kWeak;
      continue;
    }
    if (a.size() < 2 || a[0] != '-') {
      if (positional == 0) {
        args->model = a;
      } else if (positional == 1) {
        args->path = a;
      } else {
        return StrFormat("unexpected argument \"%s\" after \"%s\" and "
                         "\"%s\"",
                         a.c_str(), args->model.c_str(), args->path.c_str());
      }
      ++positional;
      continue;
    }
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    bool known = false;
    bool parsed = false;
    auto match = [&](const auto& flags) {
      for (const auto& [name, field] : flags) {
        if (a != name) continue;
        known = true;
        parsed = value != nullptr && ParseValue(value, field);
      }
    };
    match(text_flags);
    match(int_flags);
    match(int64_flags);
    match(real_flags);
    if (!known) return StrFormat("unknown option \"%s\"", a.c_str());
    if (value == nullptr) return StrFormat("%s needs a value", a.c_str());
    if (!parsed)
      return StrFormat("bad value \"%s\" for %s", value, a.c_str());
    ++i;
  }
  return "";
}

// The one check of the cluster, batch and jobs values, run before any
// command: below these bounds MakeCluster and the graph builders either
// CHECK-fail or quietly run a configuration nobody asked for.
std::string CheckArgs(const Args& args) {
  if (args.gpus < 1)
    return StrFormat("--gpus must be at least 1, got %d", args.gpus);
  if (args.servers < 1)
    return StrFormat("--servers must be at least 1, got %d", args.servers);
  if (args.gpus % args.servers != 0)
    return StrFormat("--gpus %d does not divide evenly over --servers %d",
                     args.gpus, args.servers);
  if (args.batch < 0)
    return StrFormat("--batch must be positive, got %lld",
                     (long long)args.batch);
  if (args.scaling == Scaling::kStrong && args.batch > 0 &&
      args.batch < args.gpus)
    return StrFormat("--batch %lld is smaller than --gpus %d; strong "
                     "scaling splits the batch over the GPUs (or pass "
                     "--weak)",
                     (long long)args.batch, args.gpus);
  if (args.jobs < 0)
    return StrFormat("--jobs must be at least 0, got %d", args.jobs);
  return "";
}

Cluster MakeCluster(const Args& args) {
  return args.servers > 1
             ? Cluster::MultiServer(args.servers, args.gpus / args.servers)
             : Cluster::SingleServer(args.gpus);
}

// Command-specific report sections: (key, complete raw JSON value) pairs,
// appended to the fastt-report/1 bundle in order. Commands only build them
// when --report was given (the JSON renders can be sizable).
using ReportSections = std::vector<std::pair<std::string, std::string>>;

// Shared artifact epilogue honoring the global --report flag; `events` (may
// be null) is the workflow event log of whatever the command just ran.
// Reads the ambient registry so a command that ran under a TelemetryScope
// exports that context's metrics. Returns the command's exit code `rc`, or
// 1 when the report cannot be written.
int WriteRunArtifacts(const Args& args, int rc, const EventLog* events,
                      const ReportSections& sections = {}) {
  if (args.report_path.empty()) return rc;
  MetricsRegistry& metrics = CurrentMetrics();
  PublishSearchPoolMetrics(metrics);
  PublishMemMetrics(metrics);
  RunReport report(args.command, args.model);
  report.SetParam("gpus", args.gpus);
  report.SetParam("servers", args.servers);
  if (args.batch > 0) report.SetParam("batch", args.batch);
  report.SetParam("jobs", SearchJobs());
  report.SetMetrics(metrics);
  if (events != nullptr) report.SetEvents(*events);
  for (const auto& [key, json] : sections) report.AddSection(key, json);
  if (!report.Write(args.report_path)) {
    std::fprintf(stderr, "cannot write %s\n", args.report_path.c_str());
    return rc != 0 ? rc : 1;
  }
  std::printf("wrote run report to %s\n", args.report_path.c_str());
  return rc;
}

// Model lookup with the CLI's actionable error message; commands return 2
// when this comes back null.
const ModelSpec* RequireModel(const std::string& name) {
  const ModelSpec* spec = FindModelOrNull(name);
  if (spec == nullptr)
    std::fprintf(stderr,
                 "fastt: unknown model \"%s\" — run `fastt models` to list "
                 "the zoo\n",
                 name.c_str());
  return spec;
}

int CmdModels() {
  TablePrinter table({"model", "strong batch", "weak batch/GPU", "ops",
                      "edges", "GFLOP/iter", "weights"});
  for (const ModelSpec& spec : ModelZoo()) {
    const Graph g = BuildSingle(spec, spec.strong_batch);
    int64_t weights = 0;
    for (OpId id : g.LiveOps())
      if (g.op(id).type == OpType::kVariable)
        weights += g.op(id).output_bytes();
    table.AddRow({spec.name, StrFormat("%lld", (long long)spec.strong_batch),
                  StrFormat("%lld", (long long)spec.weak_batch),
                  StrFormat("%d", g.num_live_ops()),
                  StrFormat("%lld", (long long)g.num_live_edges()),
                  StrFormat("%.1f", g.TotalFlops() / 1e9),
                  HumanBytes(static_cast<double>(weights))});
  }
  table.Print();
  return 0;
}

int CmdRun(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);
  std::printf("FastT: %s, batch %lld (%s scaling), %s\n", spec.name.c_str(),
              (long long)batch,
              args.scaling == Scaling::kStrong ? "strong" : "weak",
              cluster.ToString().c_str());
  CalculatorOptions options;
  const auto ft = RunFastT(spec.build, spec.name, batch, args.scaling,
                           cluster, options);
  std::printf("  %.1f samples/s  (%.3f ms/iteration%s)\n",
              SamplesPerSecond(ft), ft.iteration_s * 1e3,
              ft.final_sim.oom ? ", OOM!" : "");
  std::printf("  pre-training: %d rounds, %d rollbacks, %.1f s simulated "
              "strategy time, %.3f s algorithm wall time\n",
              ft.rounds, ft.rollbacks, ft.strategy_time_s,
              ft.algorithm_time_s);
  std::printf("  bootstrap: %s; returned: %s, %d micro-batch%s; splits: %zu\n",
              ft.start_strategy.c_str(), ft.returned_by.c_str(),
              ft.micro_batches, ft.micro_batches == 1 ? "" : "es",
              ft.strategy.splits.size());
  for (const SplitDecision& s : ft.strategy.splits)
    std::printf("    split %s %s x%d\n", s.op_name.c_str(),
                SplitDimName(s.dim), s.num_splits);
  if (!ft.round_history.empty()) {
    TablePrinter rounds({"round", "predicted", "measured", "rel err",
                         "replaced", "splits", "decision"});
    for (const RoundSummary& r : ft.round_history)
      rounds.AddRow({StrFormat("%d", r.round),
                     StrFormat("%.3f ms", r.predicted_s * 1e3),
                     StrFormat("%.3f ms", r.measured_s * 1e3),
                     StrFormat("%+.1f%%", 100.0 * r.rel_error),
                     StrFormat("%d", r.ops_replaced),
                     StrFormat("%d", r.splits),
                     r.committed ? "commit"
                     : r.oom     ? "rollback (OOM)"
                                 : "rollback (slower)"});
    std::printf("  pre-training rounds (predicted vs measured):\n");
    rounds.Print();
  }
  ReportSections sections;
  if (!args.report_path.empty() && !ft.calibration.empty())
    sections.push_back(
        {"calibration", CalibrationToJson(spec.name, ft.calibration)});
  return WriteRunArtifacts(args, 0, &ft.events, sections);
}

int CmdAnalyze(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);
  std::printf("FastT schedule analysis: %s, batch %lld, %s\n\n",
              spec.name.c_str(), (long long)batch,
              cluster.ToString().c_str());
  CalculatorOptions options;
  const auto ft = RunFastT(spec.build, spec.name, batch, args.scaling,
                           cluster, options);
  const ScheduleAnalysis analysis =
      AnalyzeSchedule(ft.graph, ft.final_sim, cluster);
  std::fputs(RenderScheduleAnalysis(ft.graph, analysis).c_str(), stdout);
  if (!ft.calibration.empty()) {
    std::printf("\ncost-model calibration by round (see `fastt calibrate` "
                "for the full audit):\n");
    std::fputs(RenderCalibrationSummary(ft.calibration).c_str(), stdout);
  }
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back({"analysis", ScheduleAnalysisToJson(ft.graph, analysis)});
  return WriteRunArtifacts(args, 0, &ft.events, sections);
}

int CmdCompare(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);
  std::printf("%s, global batch %lld, %s\n\n", spec.name.c_str(),
              (long long)batch, cluster.ToString().c_str());
  TablePrinter table({"strategy", "samples/s", "iteration", "OOM"});
  // Every row is scored as ResimulateIteration scores a returned strategy:
  // noise-free, under the order it is returned with. A baseline without an
  // order of its own runs its graph's TopoOrder, as RunFastT's data-parallel
  // and model-parallel starts do.
  auto row = [&](const std::string& name, const Graph& g,
                 const std::vector<DeviceId>& placement,
                 const std::vector<int64_t>& priorities) {
    SimOptions so;
    so.dispatch = DispatchMode::kPriority;
    so.priorities = priorities;
    const SimResult r = Simulate(g, placement, cluster, so);
    table.AddRow({name,
                  r.oom ? "-"
                        : StrFormat("%.1f", batch / (r.makespan +
                                                     kSessionOverheadS)),
                  StrFormat("%.3f ms", r.makespan * 1e3),
                  r.oom ? "yes" : "no"});
  };
  auto topo = [](const Graph& g) {
    return PrioritiesFromOrder(g.TopoOrder(), g.num_slots());
  };
  const int gpus = cluster.num_devices();
  {
    const DataParallelGraph dp = BuildDataParallel(
        spec.build, spec.name, batch, gpus, Scaling::kStrong);
    row("data parallel (shared vars)", dp.graph,
        CanonicalDataParallelPlacement(dp), topo(dp.graph));
  }
  {
    const auto ar = BuildAllReduceDataParallel(spec.build, spec.name, batch,
                                               gpus, Scaling::kStrong);
    row("data parallel (ring allreduce)", ar.graph, AllReducePlacement(ar),
        topo(ar.graph));
  }
  {
    Graph g(spec.name);
    spec.build(g, "", batch);
    row("model parallel (layer cut)", g,
        GreedyModelParallelPlacement(g, cluster), topo(g));
  }
  // The pipeline FastT starts from, the doubled pipeline it measures after
  // the rounds (replayed on its own graph) and the strategy it returns.
  {
    const auto p = BuildPipeline(spec.build, spec.name, batch, gpus, cluster);
    row(StrFormat("pipeline (%d micro-batches)", gpus), p.graph, p.placement,
        p.priorities);
  }
  CalculatorOptions options;
  const auto ft = RunFastT(spec.build, spec.name, batch, Scaling::kStrong,
                           cluster, options);
  if (const StartStrategy& doubled = ft.doubled_pipeline;
      !doubled.name.empty()) {
    const DataParallelGraph dp = BuildDataParallel(
        spec.build, spec.name, ft.global_batch, 2 * gpus, Scaling::kStrong);
    row(StrFormat("%s (%d micro-batches)", doubled.name.c_str(), 2 * gpus),
        dp.graph, doubled.placement,
        PrioritiesFromOrder(doubled.order, dp.graph.num_slots()));
  }
  row("FastT", ft.graph, ft.strategy.placement,
      PrioritiesFromOrder(ft.strategy.execution_order, ft.graph.num_slots()));
  table.Print();
  return 0;
}

int CmdExport(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Graph g = BuildSingle(spec, batch);
  std::ofstream out(args.path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.path.c_str());
    return 1;
  }
  SerializeGraph(g, out);
  std::printf("wrote %s (%d ops, %lld edges)\n", args.path.c_str(),
              g.num_live_ops(), (long long)g.num_live_edges());
  return 0;
}

int CmdTrace(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const Cluster cluster = MakeCluster(args);
  CalculatorOptions options;
  const auto ft = RunFastT(spec.build, spec.name, spec.strong_batch,
                           Scaling::kStrong, cluster, options);
  // Re-simulate the final strategy with the memory timeline recorder on so
  // the trace gets per-device live-memory counter tracks.
  SimOptions so;
  so.dispatch = DispatchMode::kPriority;
  so.priorities =
      PrioritiesFromOrder(ft.strategy.execution_order, ft.graph.num_slots());
  so.record_memory_timeline = true;
  const SimResult sim = Simulate(ft.graph, ft.strategy.placement, cluster, so);
  if (!WriteChromeTrace(ft.graph, sim, args.path)) {
    std::fprintf(stderr, "cannot write %s\n", args.path.c_str());
    return 1;
  }
  std::printf("wrote %s — load in chrome://tracing or Perfetto\n",
              args.path.c_str());
  return WriteRunArtifacts(args, 0, &ft.events);
}

int CmdExplain(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);
  std::printf("placement provenance: %s, batch %lld, %s\n", spec.name.c_str(),
              (long long)batch, cluster.ToString().c_str());
  CalculatorOptions options;
  options.record_provenance = true;
  const auto ft = RunFastT(spec.build, spec.name, batch, args.scaling,
                           cluster, options);
  std::printf("committed strategy: %zu placement decisions, %zu split trials "
              "recorded\n\n",
              ft.provenance.size(), ft.split_trials.size());
  std::fputs(ExplainOps(ft, args.op).c_str(), stdout);
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back(
        {"provenance", ProvenanceToJson(ft.provenance, ft.split_trials)});
  return WriteRunArtifacts(args, 0, &ft.events, sections);
}

int CmdCalibrate(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);
  std::printf("cost-model calibration: %s, batch %lld, %s\n\n",
              spec.name.c_str(), (long long)batch,
              cluster.ToString().c_str());
  CalculatorOptions options;
  const auto ft = RunFastT(spec.build, spec.name, batch, args.scaling,
                           cluster, options);
  std::fputs(RenderCalibrationReport(ft.calibration).c_str(), stdout);
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back(
        {"calibration", CalibrationToJson(spec.name, ft.calibration)});
  return WriteRunArtifacts(args, 0, &ft.events, sections);
}

int CmdVerify(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);

  CompCostModel comp;
  CommCostModel comm;
  Strategy strategy;
  const bool from_file = !args.strategy_path.empty();
  if (from_file) {
    std::ifstream in(args.strategy_path);
    if (!in) {
      std::fprintf(stderr,
                   "fastt: cannot read strategy file \"%s\" — check the "
                   "--strategy path\n",
                   args.strategy_path.c_str());
      return 2;
    }
    try {
      strategy = DeserializeStrategy(in);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "fastt: cannot parse strategy file \"%s\": %s — expected "
                   "the format SerializeStrategy writes\n",
                   args.strategy_path.c_str(), e.what());
      return 2;
    }
  }

  // The base graph the strategy's slot ids refer to: the data-parallel
  // replication StrategyCalculator hands OS-DPOS or, for a strategy that
  // records its micro-batch count (RunFastT's doubled pipeline), the DP graph
  // at that count and the same global batch.
  const int gpus = cluster.num_devices();
  const int64_t global_batch =
      args.scaling == Scaling::kStrong ? batch : batch * gpus;
  if (strategy.micro_batches > global_batch) {
    std::fprintf(stderr,
                 "fastt: strategy file \"%s\" runs %d micro-batches, more "
                 "than the global batch %lld — pass the --batch it was "
                 "computed for\n",
                 args.strategy_path.c_str(), strategy.micro_batches,
                 (long long)global_batch);
    return 2;
  }
  DataParallelGraph dp =
      strategy.micro_batches != 0
          ? BuildDataParallel(spec.build, spec.name, global_batch,
                              strategy.micro_batches, Scaling::kStrong)
          : BuildDataParallel(spec.build, spec.name, batch, gpus,
                              args.scaling);
  const std::vector<DeviceId> dp_placement =
      CanonicalDataParallelPlacement(dp);
  Graph graph = std::move(dp.graph);

  if (from_file) {
    // Re-apply the recorded split list so slot ids in the strategy line up
    // with the rewritten graph. Unknown or unsplittable names are left for
    // the verifier to report (strategy.split.op) instead of aborting here.
    for (const SplitDecision& s : strategy.splits) {
      const OpId id = graph.FindOp(s.op_name);
      if (id == kInvalidOp || !CanSplit(graph, id, s.dim, s.num_splits))
        continue;
      SplitOperation(graph, id, s.dim, s.num_splits);
    }
    std::printf("verify: %s, batch %lld, %s, strategy %s (%zu splits, %d "
                "micro-batches)\n",
                spec.name.c_str(), (long long)batch,
                cluster.ToString().c_str(), args.strategy_path.c_str(),
                strategy.splits.size(),
                strategy.micro_batches != 0 ? strategy.micro_batches : gpus);
  } else {
    // No file: verify the strategy a pre-training round would compute —
    // bootstrap-profile the DP placement once, then search with OS-DPOS.
    SimOptions so;
    so.noise_cv = 0.03;
    so.seed = 11;
    const RunProfile profile =
        ExtractProfile(graph, Simulate(graph, dp_placement, cluster, so));
    comp.AddProfile(profile);
    comm.AddProfile(profile);
    OsDposResult os = OsDpos(graph, cluster, comp, comm);
    graph = std::move(os.graph);
    strategy = std::move(os.schedule.strategy);
    strategy.splits = std::move(os.splits);
    std::printf("verify: %s, batch %lld, %s, OS-DPOS strategy (%zu splits, "
                "%d probes)\n",
                spec.name.c_str(), (long long)batch,
                cluster.ToString().c_str(), strategy.splits.size(),
                os.probes);
  }

  const VerifyResult result =
      VerifyStrategy(graph, strategy, cluster, &comm, VerifierOptions{});
  std::fputs(RenderDiagnostics(graph, result).c_str(), stdout);
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back({"verify", DiagnosticsToJson(graph, result)});
  return WriteRunArtifacts(args, result.ok() ? 0 : 1, nullptr, sections);
}

int CmdArena(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);
  const auto& roster = RegisteredSearchers();
  std::printf("searcher arena: %s, batch %lld, %s — %zu searchers, "
              "%d ms budget, %d jobs\n\n",
              spec.name.c_str(), (long long)batch,
              cluster.ToString().c_str(), roster.size(), args.budget_ms,
              SearchJobs());

  PortfolioOptions options;
  options.budget_s = static_cast<double>(args.budget_ms) / 1e3;
  const PortfolioResult result = PortfolioSearch(
      roster, spec.build, spec.name, batch, cluster, options);

  TablePrinter table({"searcher", "family", "iteration", "resim", "evals",
                      "wall", "verify", "stop", ""});
  for (const PortfolioEntry& e : result.entries) {
    const bool finite = std::isfinite(e.iteration_s);
    table.AddRow(
        {e.searcher, e.family,
         finite ? StrFormat("%.3f ms", e.iteration_s * 1e3) : "OOM",
         std::isfinite(e.resim_s) ? StrFormat("%.3f ms", e.resim_s * 1e3)
                                  : "-",
         StrFormat("%d", e.evaluations), StrFormat("%.2f s", e.wall_s),
         e.verified ? "PASS" : StrFormat("%d errors", e.verify_errors),
         e.stop_reason, e.winner ? "<- winner" : ""});
  }
  table.Print();

  if (result.winner < 0) {
    std::printf("\nno searcher produced a verified strategy\n");
    return WriteRunArtifacts(args, 1, &result.events);
  }
  const PortfolioEntry& winner =
      result.entries[static_cast<size_t>(result.winner)];
  std::printf("\nwinner: %s (%s), %.3f ms/iteration, %zu splits, "
              "%zu-op order\n",
              winner.searcher.c_str(), winner.family.c_str(),
              result.iteration_s * 1e3, result.strategy.splits.size(),
              result.strategy.execution_order.size());
  std::fputs(RenderDiagnostics(result.graph, result.winner_verify).c_str(),
             stdout);
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back(
        {"arena", PortfolioToJson(spec.name, batch, cluster, result)});
  return WriteRunArtifacts(args, 0, &result.events, sections);
}

// Writes a drained search trace as a Chrome trace. Returns the command's
// exit code `rc`, or 1 when the file cannot be written.
int WriteSearchTrace(const std::string& path, const TraceDump& dump, int rc) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return rc != 0 ? rc : 1;
  }
  out << TraceToChromeJson(dump) << "\n";
  std::printf("wrote search trace to %s (%zu spans)\n", path.c_str(),
              dump.spans.size());
  return rc;
}

// `fastt report` — the full workflow inside a fresh TelemetryContext: the
// tracer and heap tracker run for the whole workflow, every instrumented
// call site (including pool workers) lands in the request-scoped context,
// and the richest fastt-report/1 bundle is written at the end. The one
// drained trace feeds the printed phase table, the bundle's trace_phases
// and, with --trace-search, the Chrome trace; since the heap tracker is on,
// that trace carries mem/<tag>/live_bytes counter tracks next to the spans.
int CmdReport(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);
  const std::string out_path = !args.path.empty()          ? args.path
                               : !args.report_path.empty() ? args.report_path
                                                           : "report.json";
  std::printf("report: %s, batch %lld, %s, %d jobs\n", spec.name.c_str(),
              (long long)batch, cluster.ToString().c_str(), SearchJobs());

  TelemetryContext context;
  context.tracer().SetCurrentThreadName("report main");
  context.tracer().Enable();
  // The report workflow doubles as the CLI's profiling window: the CPU
  // sampler runs across the whole run and lands as a top-N frame table plus
  // a "profile" section in the bundle. Start can fail (e.g. the timers
  // cannot be created); the report just goes without in that case.
  RegisterProfiledThread();
  const bool profiling = CpuProfiler::Global().Start(CpuProfilerOptions{});
  MemTracker& mem = context.memtrack();
  mem.Enable();

  CalculatorResult ft;
  VerifyResult verify;
  {
    TelemetryScope scope(context);
    CalculatorOptions options;
    ft = RunFastT(spec.build, spec.name, batch, args.scaling, cluster,
                  options);
    verify =
        VerifyStrategy(ft.graph, ft.strategy, cluster, &ft.comm,
                       VerifierOptions{});
    PublishSearchPoolMetrics(context.metrics());
    PublishMemMetrics(context.metrics());
  }
  mem.Disable();
  if (profiling) CpuProfiler::Global().Stop();
  context.tracer().Disable();
  const TraceDump dump = context.tracer().Drain();
  const TraceSummary summary = SummarizeTrace(dump);
  SymbolizedProfile prof;
  if (profiling) prof = SymbolizeProfile(CpuProfiler::Global().Drain());

  std::printf("  %.1f samples/s, %d rounds, %zu splits; verifier: %d "
              "errors, %d warnings\n",
              SamplesPerSecond(ft), ft.rounds, ft.strategy.splits.size(),
              verify.errors, verify.warnings);
  std::printf("\n");
  std::fputs(RenderTraceSummary(summary).c_str(), stdout);
  if (profiling && prof.samples_total > 0) {
    std::printf("\n");
    std::fputs(RenderProfileTable(prof).c_str(), stdout);
  }

  RunReport report("report", spec.name);
  report.SetParam("gpus", cluster.num_devices());
  report.SetParam("servers", args.servers);
  report.SetParam("batch", batch);
  report.SetParam("jobs", SearchJobs());
  report.SetMetrics(context.metrics());
  report.SetEvents(ft.events);
  report.SetTraceSummary(summary);
  if (!ft.calibration.empty())
    report.AddSection("calibration",
                      CalibrationToJson(spec.name, ft.calibration));
  report.AddSection("verify", DiagnosticsToJson(ft.graph, verify));
  if (profiling && prof.samples_total > 0)
    report.AddSection(
        "profile",
        ProfileToJson(prof, {{"command", "report"}, {"model", spec.name}}));
  if (!report.Write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote run report to %s\n", out_path.c_str());
  if (args.trace_search_path.empty()) return 0;
  return WriteSearchTrace(args.trace_search_path, dump, 0);
}

int CmdBenchDiff(const Args& args) {
  BenchHistoryDoc old_doc;
  BenchHistoryDoc new_doc;
  std::string error;
  if (!ReadBenchHistoryDoc(args.model, &old_doc, &error)) {
    std::fprintf(stderr, "bench-diff: %s: %s\n", args.model.c_str(),
                 error.c_str());
    return 2;
  }
  if (!ReadBenchHistoryDoc(args.path, &new_doc, &error)) {
    std::fprintf(stderr, "bench-diff: %s: %s\n", args.path.c_str(),
                 error.c_str());
    return 2;
  }
  const BenchDiffResult result = DiffBenchReports(old_doc, new_doc, args.diff);
  std::fputs(RenderBenchDiff(result, args.diff).c_str(), stdout);
  return result.hard_regressions > 0 ? 1 : 0;
}

// One usage line per command, keyed by name, so misuse of a known command
// prints that command's synopsis instead of the full banner.
struct CommandSpec {
  const char* name;
  const char* usage;
};

constexpr CommandSpec kCommands[] = {
    {"models", "fastt models"},
    {"run", "fastt run <model> [--gpus N] [--servers S] [--batch B] [--weak]"},
    {"compare", "fastt compare <model> [--gpus N] [--servers S] [--batch B]"},
    {"export", "fastt export <model> <graph.txt> [--batch B]"},
    {"trace", "fastt trace <model> <trace.json> [--gpus N]"},
    {"analyze", "fastt analyze <model> [--gpus N] [--servers S] [--batch B]"},
    {"explain",
     "fastt explain <model> --op <name> [--gpus N] [--servers S] [--batch B]"},
    {"calibrate",
     "fastt calibrate <model> [--gpus N] [--servers S] [--batch B]"},
    {"bench-diff",
     "fastt bench-diff <old.json> <new.json> [--threshold T] [--hard-factor "
     "F] [--min-repeats R]"},
    {"verify",
     "fastt verify <model> [--strategy f] [--gpus N] [--servers S] "
     "[--batch B]"},
    {"arena",
     "fastt arena <model> [--gpus N] [--servers S] [--batch B] "
     "[--budget-ms T] [--jobs N]"},
    {"report",
     "fastt report <model> [report.json] [--gpus N] [--servers S] "
     "[--batch B] [--jobs N]"},
};

int Usage() {
  std::fprintf(stderr, "usage:\n");
  for (const CommandSpec& c : kCommands)
    std::fprintf(stderr, "  %s\n", c.usage);
  std::fprintf(stderr,
               "options: every command accepts --jobs N (parallel search;\n"
               "         same strategy as --jobs 1), --report <out.json>\n"
               "         (fastt-report/1 bundle), --log-level\n"
               "         error|warn|info|debug (or FASTT_LOG_LEVEL) and\n"
               "         --trace-search <out.json> (Chrome trace of the\n"
               "         search); `fastt report` also prints the search\n"
               "         phase table and a CPU profile;\n"
               "         `fastt --version` prints build provenance\n");
  return 2;
}

// Misused known command: print its synopsis only.
int CommandUsage(const std::string& command) {
  for (const CommandSpec& c : kCommands) {
    if (command == c.name) {
      std::fprintf(stderr, "usage: %s\n", c.usage);
      return 2;
    }
  }
  return Usage();
}

int Dispatch(const Args& args) {
  if (args.command.empty()) return Usage();
  if (args.command == "models")
    return WriteRunArtifacts(args, CmdModels(), nullptr);
  if (args.command == "run")
    return args.model.empty() ? CommandUsage(args.command) : CmdRun(args);
  if (args.command == "analyze")
    return args.model.empty() ? CommandUsage(args.command) : CmdAnalyze(args);
  if (args.command == "explain")
    return args.model.empty() ? CommandUsage(args.command) : CmdExplain(args);
  if (args.command == "calibrate")
    return args.model.empty() ? CommandUsage(args.command)
                              : CmdCalibrate(args);
  if (args.command == "compare") {
    if (args.model.empty()) return CommandUsage(args.command);
    return WriteRunArtifacts(args, CmdCompare(args), nullptr);
  }
  if (args.command == "export") {
    if (args.model.empty() || args.path.empty())
      return CommandUsage(args.command);
    return WriteRunArtifacts(args, CmdExport(args), nullptr);
  }
  if (args.command == "trace") {
    if (args.model.empty() || args.path.empty())
      return CommandUsage(args.command);
    return CmdTrace(args);
  }
  if (args.command == "verify")
    return args.model.empty() ? CommandUsage(args.command) : CmdVerify(args);
  if (args.command == "arena")
    return args.model.empty() ? CommandUsage(args.command) : CmdArena(args);
  if (args.command == "report")
    return args.model.empty() ? CommandUsage(args.command) : CmdReport(args);
  if (args.command == "bench-diff") {
    if (args.model.empty() || args.path.empty())
      return CommandUsage(args.command);
    return CmdBenchDiff(args);
  }
  std::fprintf(stderr, "fastt: unknown command \"%s\"\n",
               args.command.c_str());
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error = Parse(argc, argv, &args);
  if (error.empty()) error = CheckArgs(args);
  if (!error.empty()) {
    std::fprintf(stderr, "fastt: %s\n", error.c_str());
    return 2;
  }
  if (args.command == "--version" || args.command == "version") {
    std::printf("fastt %s\n", BuildInfoLine().c_str());
    return 0;
  }
  if (!args.log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(args.log_level, &level)) {
      std::fprintf(stderr,
                   "fastt: bad --log-level \"%s\" — use error, warn, info "
                   "or debug\n",
                   args.log_level.c_str());
      return 2;
    }
    SetLogThreshold(level);
  }
  if (args.jobs > 0) SetSearchJobs(args.jobs);
  // `fastt report` records into its own TelemetryContext and writes the
  // trace itself; for every other command --trace-search records the whole
  // run's search activity and the epilogue below writes it out.
  const bool trace_here =
      !args.trace_search_path.empty() && args.command != "report";
  if (trace_here) {
    Tracer::Global().SetCurrentThreadName("search main");
    Tracer::Global().Enable();
  }
  int rc = 0;
  try {
    rc = Dispatch(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (trace_here) {
    Tracer::Global().Disable();
    rc = WriteSearchTrace(args.trace_search_path, Tracer::Global().Drain(), rc);
  }
  return rc;
}
