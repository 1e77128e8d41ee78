// fastt — command-line front end for the library.
//
//   fastt models
//       List the model zoo with Table 1/2 batch sizes and graph statistics.
//   fastt run <model> [--gpus N] [--servers S] [--batch B] [--weak]
//       Run the full FastT workflow and report the strategy + throughput.
//   fastt compare <model> [--gpus N] [--servers S] [--batch B]
//       DP (shared-variable), ring-allreduce DP, model parallel, pipeline
//       and FastT side by side.
//   fastt export <model> <graph.txt> [--batch B]
//       Serialize the training graph to the text format.
//   fastt trace <model> <trace.json> [--gpus N]
//       Run FastT and dump the final schedule as a Chrome trace (with flow
//       arrows for tensor transfers and per-device memory counter tracks).
//   fastt analyze <model> [--gpus N] [--servers S] [--batch B] [--json F]
//       Run FastT and report the realized critical path, per-device
//       utilization/bubble breakdown, top critical ops/transfers, link
//       traffic and the per-round cost-model calibration summary.
//   fastt explain <model> --op <name> [--gpus N] [--batch B]
//       Run FastT with provenance recording and show, for every committed
//       op whose name contains <name>, the candidate devices DPOS scored,
//       the chosen device with its reason code, the split trials probed and
//       predicted-vs-realized execution time.
//   fastt calibrate <model> [--gpus N] [--batch B] [--json F]
//       Run FastT and report how wrong the cost models were each
//       pre-training round: per-op/per-transfer residual histograms,
//       comm-regression drift and rollback post-mortems.
//   fastt search-profile <model> [trace.json] [--gpus N] [--jobs N]
//       Run the OS-DPOS search under the flight recorder and report where
//       its wall-clock went: a phase/self-time table, worker occupancy and
//       queue-wait stats, optionally the raw Chrome trace of the search
//       (with mem/<tag>/live_bytes counter tracks from the heap telemetry).
//   fastt memstat <model> [--gpus N] [--batch B] [--jobs N] [--json F]
//       Run one pre-training round under the tagged heap tracker and report
//       per-phase, per-subsystem host-heap peaks, live bytes and allocation
//       counts (graph build, bootstrap profile, OS-DPOS search, final sim).
//   fastt bench-diff <old.json> <new.json> [--threshold T] [--min-repeats R]
//       Compare two fastt-bench/1 reports (FASTT_BENCH_JSON output).
//       Exits nonzero on a hard regression — the CI gate.
//   fastt profile <model> [--hz N] [--seconds S] [--json F] [--folded F]
//       Run the OS-DPOS search in a loop under the sampling CPU profiler
//       (obs/profiler.h) and report where the cycles went: a top-N
//       self/total frame table, per-sample span attribution, and optionally
//       the fastt-prof/1 JSON (--json) plus collapsed-stack flamegraph
//       input (--folded, flamegraph.pl / speedscope format).
//   fastt prof-diff <old.json> <new.json> [--threshold PP]
//       Compare two fastt-prof/1 profiles by per-frame self-time share.
//       Exits nonzero on a hard regression — the perf twin of bench-diff.
//   fastt verify <model> [--strategy f] [--gpus N] [--batch B] [--json F]
//       Run the full strategy verifier (analysis/verifier.h rule catalog)
//       over a strategy for <model>: with --strategy, a serialized strategy
//       file whose split list is re-applied to the base graph; without, the
//       strategy a pre-training round would compute (bootstrap profile +
//       OS-DPOS). Exits nonzero when any error-severity rule fires.
//   fastt arena <model> [--gpus N] [--batch B] [--budget-ms T] [--json F]
//       Race every registered searcher (FastT's DPOS pipeline, the Fig. 3
//       black-box stand-ins, and the published-rival schedulers) on the
//       shared search pool under a wall-clock budget, verify every
//       candidate, and report the per-searcher table plus the winning
//       verified strategy's diagnostics. Exits nonzero when no candidate
//       passes verification.
//
//   fastt report <model> [report.json] [--gpus N] [--batch B] [--jobs N]
//       Run the full FastT workflow inside a fresh TelemetryContext with the
//       tracer and heap tracker on, and write the richest fastt-report/1
//       bundle: metrics, workflow events, calibration, verifier summary,
//       memstat totals and trace phase self-times in one JSON document.
//
// Every command also accepts `--jobs N` (or FASTT_JOBS=N) to parallelize the
// strategy search across N threads — the computed strategy is bit-identical
// to --jobs 1 — plus the global artifact/diagnostic flags:
//   --metrics <out.json>      dump the metrics registry (counters, timers,
//                             gauges — plus the round-by-round workflow event
//                             log for run/analyze) on exit
//   --report <out.json>       one fastt-report/1 bundle of whatever the
//                             command ran (metrics + events + command section)
//   --openmetrics <out.txt>   OpenMetrics/Prometheus text exposition of the
//                             metrics registry on exit
//   --blackbox <out.json>     arm the crash black-box: fatal signals and
//                             std::terminate dump a fastt-blackbox/1 file
//   --log-level <level>       error|warn|info|debug (or FASTT_LOG_LEVEL)
//   --trace-search <out.json> (or FASTT_TRACE_SEARCH=path) records the
//                             strategy search itself as a Chrome trace
//   --profile <out.json>      sample the whole command under the CPU
//                             profiler and write a fastt-prof/1 document
//                             (on search-profile: also merges sample tracks
//                             into the Chrome trace)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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
#include "obs/blackbox.h"
#include "obs/build_info.h"
#include "obs/calibration.h"
#include "obs/context.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
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
  std::string metrics_path;  // --metrics: dump the metrics registry here
  std::string json_path;     // --json: machine-readable analysis output
  std::string report_path;   // --report: fastt-report/1 bundle
  std::string openmetrics_path;  // --openmetrics: Prometheus exposition
  std::string blackbox_path;     // --blackbox: arm the crash black-box
  std::string log_level;         // --log-level: error|warn|info|debug
  std::string trace_search_path;  // --trace-search: search Chrome trace
  std::string profile_path;  // --profile: fastt-prof/1 CPU profile output
  std::string folded_path;   // --folded: collapsed-stack flamegraph output
  int gpus = 4;
  int servers = 1;
  int jobs = 0;  // --jobs: search threads; 0 = keep FASTT_JOBS / default
  int budget_ms = 2000;  // --budget-ms: arena wall-clock budget per racer
  int profile_hz = 997;  // --hz: profiler sampling rate
  double profile_seconds = 1.0;  // --seconds: `fastt profile` loop duration
  int top_n = 15;        // --top: profile table rows
  int64_t batch = 0;  // 0 = model default
  Scaling scaling = Scaling::kStrong;
  BenchDiffOptions diff;  // bench-diff: --threshold / --min-repeats / ...
  ProfDiffOptions prof_diff;  // prof-diff: --threshold (pp) / --min-samples
};

Args Parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--gpus") {
      args.gpus = std::atoi(next());
    } else if (a == "--servers") {
      args.servers = std::atoi(next());
    } else if (a == "--batch") {
      args.batch = std::atoll(next());
    } else if (a == "--jobs") {
      args.jobs = std::atoi(next());
    } else if (a == "--budget-ms") {
      args.budget_ms = std::atoi(next());
    } else if (a == "--op") {
      args.op = next();
    } else if (a == "--strategy") {
      args.strategy_path = next();
    } else if (a == "--metrics") {
      args.metrics_path = next();
    } else if (a == "--json") {
      args.json_path = next();
    } else if (a == "--report") {
      args.report_path = next();
    } else if (a == "--openmetrics") {
      args.openmetrics_path = next();
    } else if (a == "--blackbox") {
      args.blackbox_path = next();
    } else if (a == "--log-level") {
      args.log_level = next();
    } else if (a == "--trace-search") {
      args.trace_search_path = next();
    } else if (a == "--profile") {
      args.profile_path = next();
    } else if (a == "--folded") {
      args.folded_path = next();
    } else if (a == "--hz") {
      args.profile_hz = std::atoi(next());
    } else if (a == "--seconds") {
      args.profile_seconds = std::atof(next());
    } else if (a == "--top") {
      args.top_n = std::atoi(next());
    } else if (a == "--threshold") {
      // Shared spelling, per-command scale: a relative delta for
      // bench-diff, percentage points of self share for prof-diff.
      const double v = std::atof(next());
      args.diff.threshold = v;
      args.prof_diff.threshold_pp = v;
    } else if (a == "--hard-factor") {
      const double v = std::atof(next());
      args.diff.hard_factor = v;
      args.prof_diff.hard_factor = v;
    } else if (a == "--min-repeats") {
      args.diff.min_repeats = std::atoi(next());
    } else if (a == "--min-samples") {
      args.prof_diff.min_samples =
          static_cast<uint64_t>(std::atoll(next()));
    } else if (a == "--weak") {
      args.scaling = Scaling::kWeak;
    } else if (positional == 0) {
      args.model = a;
      ++positional;
    } else {
      args.path = a;
      ++positional;
    }
  }
  return args;
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

// Shared artifact epilogue honoring the global --metrics, --openmetrics and
// --report flags; `events` (may be null) is the workflow event log of
// whatever the command just ran. Reads the ambient registry so a command
// that ran under a TelemetryScope exports that context's metrics.
void WriteRunArtifacts(const Args& args, const EventLog* events,
                       const ReportSections& sections = {}) {
  if (args.metrics_path.empty() && args.openmetrics_path.empty() &&
      args.report_path.empty())
    return;
  MetricsRegistry& metrics = CurrentMetrics();
  PublishSearchPoolMetrics(metrics);
  PublishMemMetrics(metrics);
  if (!args.metrics_path.empty()) {
    if (WriteMetricsJson(args.metrics_path, metrics, events))
      std::printf("wrote metrics to %s\n", args.metrics_path.c_str());
    else
      std::fprintf(stderr, "cannot write %s\n", args.metrics_path.c_str());
  }
  if (!args.openmetrics_path.empty()) {
    if (WriteOpenMetrics(args.openmetrics_path, metrics))
      std::printf("wrote OpenMetrics exposition to %s\n",
                  args.openmetrics_path.c_str());
    else
      std::fprintf(stderr, "cannot write %s\n",
                   args.openmetrics_path.c_str());
  }
  if (!args.report_path.empty()) {
    RunReport report(args.command, args.model);
    report.SetParam("gpus", args.gpus);
    report.SetParam("servers", args.servers);
    if (args.batch > 0) report.SetParam("batch", args.batch);
    report.SetParam("jobs", SearchJobs());
    report.SetMetrics(metrics);
    if (events != nullptr) report.SetEvents(*events);
    for (const auto& [key, json] : sections) report.AddSection(key, json);
    if (report.Write(args.report_path))
      std::printf("wrote run report to %s\n", args.report_path.c_str());
    else
      std::fprintf(stderr, "cannot write %s\n", args.report_path.c_str());
  }
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
  std::printf("  bootstrap: %s; splits: %zu\n",
              ft.started_model_parallel ? "model parallel" : "data parallel",
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
  WriteRunArtifacts(args, &ft.events, sections);
  return 0;
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
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    out << ScheduleAnalysisToJson(ft.graph, analysis) << "\n";
    std::printf("\nwrote analysis JSON to %s\n", args.json_path.c_str());
  }
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back({"analysis", ScheduleAnalysisToJson(ft.graph, analysis)});
  WriteRunArtifacts(args, &ft.events, sections);
  return 0;
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
  auto row = [&](const std::string& name, double iteration_s, bool oom) {
    table.AddRow({name,
                  oom ? "-" : StrFormat("%.1f", batch / (iteration_s +
                                                          kSessionOverheadS)),
                  StrFormat("%.3f ms", iteration_s * 1e3), oom ? "yes" : "no"});
  };
  CalculatorOptions options;
  const auto dp = RunDataParallelBaseline(spec.build, spec.name, batch,
                                          Scaling::kStrong, cluster, options);
  row("data parallel (shared vars)", dp.iteration_s, dp.final_sim.oom);
  {
    const auto ar = BuildAllReduceDataParallel(
        spec.build, spec.name, batch, cluster.num_devices(),
        Scaling::kStrong);
    SimOptions so;
    so.dispatch = DispatchMode::kRandom;
    const SimResult r =
        Simulate(ar.graph, AllReducePlacement(ar), cluster, so);
    row("data parallel (ring allreduce)", r.makespan, r.oom);
  }
  {
    Graph g(spec.name);
    spec.build(g, "", batch);
    const auto placement = GreedyModelParallelPlacement(g, cluster);
    const SimResult r = Simulate(g, placement, cluster);
    row("model parallel (layer cut)", r.makespan, r.oom);
  }
  {
    const auto p = BuildPipeline(spec.build, spec.name, batch,
                                 cluster.num_devices(), cluster);
    SimOptions so;
    so.dispatch = DispatchMode::kPriority;
    so.priorities = p.priorities;
    const SimResult r = Simulate(p.graph, p.placement, cluster, so);
    row(StrFormat("pipeline (%d micro-batches)", cluster.num_devices()),
        r.makespan, r.oom);
  }
  const auto ft = RunFastT(spec.build, spec.name, batch, Scaling::kStrong,
                           cluster, options);
  row("FastT", ft.iteration_s, ft.final_sim.oom);
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
  WriteRunArtifacts(args, &ft.events);
  return 0;
}

int CmdSearchProfile(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);

  // Same setup as bench_search: a data-parallel bootstrap placement is
  // simulated once and profiled, so OS-DPOS runs against realistic cost
  // models — the search being profiled is the one `fastt run` would do each
  // pre-training round.
  auto dp = BuildDataParallel(spec.build, spec.name, batch,
                              cluster.num_devices(), args.scaling);
  const std::vector<DeviceId> placement = CanonicalDataParallelPlacement(dp);
  const Graph graph = std::move(dp.graph);
  SimOptions so;
  so.noise_cv = 0.03;
  so.seed = 11;
  const RunProfile profile =
      ExtractProfile(graph, Simulate(graph, placement, cluster, so));
  CompCostModel comp;
  CommCostModel comm;
  comp.AddProfile(profile);
  comm.AddProfile(profile);

  std::printf("search-profile: %s, batch %lld, %s, %d jobs\n",
              spec.name.c_str(), (long long)batch, cluster.ToString().c_str(),
              SearchJobs());

  // Heap telemetry rides along: with both the tracker and the tracer on,
  // the subsystem entry points emit mem/<tag>/live_bytes counter tracks
  // into the same trace, so memory shows up next to time in Perfetto.
  MemTracker& mem = MemTracker::Global();
  mem.Enable();
  Tracer& tracer = Tracer::Global();
  tracer.SetCurrentThreadName("search main");
  tracer.Enable();
  // With --profile the CPU sampler runs alongside the tracer on the same
  // epoch, so its sample tracks merge into the Chrome trace timeline.
  const bool do_profile = !args.profile_path.empty();
  if (do_profile) {
    RegisterProfiledThread("search main");
    CpuProfilerOptions popts;
    popts.hz = args.profile_hz;
    popts.epoch_ns = tracer.epoch_ns();
    if (!CpuProfiler::Global().Start(popts)) {
      std::fprintf(stderr, "cannot start CPU profiler\n");
      return 1;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  int probes = 0;
  size_t splits = 0;
  double makespan = 0.0;
  {
    FASTT_TRACE_SPAN("search/total");
    const OsDposResult os = OsDpos(graph, cluster, comp, comm);
    probes = os.probes;
    splits = os.splits.size();
    makespan = os.schedule.ft_exit;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (do_profile) CpuProfiler::Global().Stop();
  tracer.Disable();
  const TraceDump dump = tracer.Drain();
  const ProfileDump prof_dump =
      do_profile ? CpuProfiler::Global().Drain() : ProfileDump{};
  const TraceSummary summary = SummarizeTrace(dump);

  std::printf("OS-DPOS: %d split probes, %zu splits committed, predicted "
              "makespan %.3f ms\n\n",
              probes, splits, makespan * 1e3);
  std::fputs(RenderTraceSummary(summary).c_str(), stdout);

  double traced_s = 0.0;
  for (const TracePhase& p : summary.phases)
    if (p.name == "search/total") traced_s = p.total_s;
  std::printf("span tree covers %.1f%% of the measured %.4f s search "
              "wall-clock\n",
              wall_s > 0.0 ? 100.0 * traced_s / wall_s : 0.0, wall_s);

  const PoolStats pool = SearchPoolStats();
  if (pool.tasks > 0) {
    const double wait_s = static_cast<double>(pool.queue_wait_ns) * 1e-9;
    std::printf("pool: %d jobs, %llu batches, %llu worker tasks, queue wait "
                "%.3f ms total (%.1f us/task)\n",
                pool.jobs, (unsigned long long)pool.batches,
                (unsigned long long)pool.tasks, wait_s * 1e3,
                pool.tasks > 0 ? wait_s * 1e6 / double(pool.tasks) : 0.0);
  }

  const MemTagStats g_mem = mem.stats(MemTag::kGraph);
  const MemTagStats s_mem = mem.stats(MemTag::kSimEvents);
  const MemTagStats d_mem = mem.stats(MemTag::kDpos);
  std::printf("memory: total peak %s (%lld allocs) — graph peak %s, "
              "sim/events peak %s, dpos peak %s; see `fastt memstat`\n",
              HumanBytes(static_cast<double>(mem.total_peak_bytes())).c_str(),
              (long long)mem.total_allocs(),
              HumanBytes(static_cast<double>(g_mem.peak_bytes)).c_str(),
              HumanBytes(static_cast<double>(s_mem.peak_bytes)).c_str(),
              HumanBytes(static_cast<double>(d_mem.peak_bytes)).c_str());
  mem.Disable();

  if (do_profile) {
    const SymbolizedProfile prof = SymbolizeProfile(prof_dump);
    std::printf("\n");
    std::fputs(RenderProfileTable(prof, args.top_n).c_str(), stdout);
    std::ofstream pf(args.profile_path);
    if (!pf) {
      std::fprintf(stderr, "cannot write %s\n", args.profile_path.c_str());
      return 1;
    }
    pf << ProfileToJson(prof,
                        {{"command", "search-profile"},
                         {"model", spec.name},
                         {"gpus", StrFormat("%d", args.gpus)},
                         {"jobs", StrFormat("%d", SearchJobs())}})
       << "\n";
    std::printf("wrote cpu profile to %s\n", args.profile_path.c_str());
  }

  const std::string out_path =
      !args.path.empty() ? args.path : args.trace_search_path;
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << (do_profile ? TraceToChromeJson(dump, prof_dump)
                       : TraceToChromeJson(dump))
        << "\n";
    std::printf("wrote search trace to %s — load in chrome://tracing or "
                "Perfetto\n",
                out_path.c_str());
  }
  WriteRunArtifacts(args, nullptr);
  return 0;
}

int CmdMemstat(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);
  std::printf("memstat: %s, batch %lld, %s, %d jobs\n\n", spec.name.c_str(),
              (long long)batch, cluster.ToString().c_str(), SearchJobs());

  MemTracker& mem = MemTracker::Global();
  mem.Enable();

  // One pre-training round, split into its phases. Peaks are reset at each
  // phase boundary, so a phase's peak_bytes is its own high-water mark (on
  // top of whatever the previous phases left live).
  struct Phase {
    std::string name;
    std::vector<MemTagStats> before;
    std::vector<MemTagStats> after;
    int64_t total_peak = 0;
    int64_t total_live = 0;
  };
  std::vector<Phase> phases;
  auto run_phase = [&](const char* name, auto&& body) {
    Phase p;
    p.name = name;
    mem.ResetPeaks();
    p.before = mem.Snapshot();
    body();
    p.after = mem.Snapshot();
    p.total_peak = mem.total_peak_bytes();
    p.total_live = mem.total_live_bytes();
    phases.push_back(std::move(p));
  };

  Graph graph;
  std::vector<DeviceId> placement;
  CompCostModel comp;
  CommCostModel comm;
  OsDposResult os;
  run_phase("graph/build", [&] {
    auto dp = BuildDataParallel(spec.build, spec.name, batch,
                                cluster.num_devices(), args.scaling);
    placement = CanonicalDataParallelPlacement(dp);
    graph = std::move(dp.graph);
  });
  run_phase("profile", [&] {
    SimOptions so;
    so.noise_cv = 0.03;
    so.seed = 11;
    const RunProfile profile =
        ExtractProfile(graph, Simulate(graph, placement, cluster, so));
    comp.AddProfile(profile);
    comm.AddProfile(profile);
  });
  run_phase("search", [&] { os = OsDpos(graph, cluster, comp, comm); });
  run_phase("final-sim", [&] {
    Simulate(os.graph, os.schedule.strategy.placement, cluster, SimOptions{});
  });
  mem.Disable();

  const auto active = [](const MemTagStats& a, const MemTagStats& b) {
    return a.allocs != b.allocs || a.frees != b.frees || b.peak_bytes > 0;
  };
  for (const Phase& p : phases) {
    std::printf("phase %s (peak %s, live after %s)\n", p.name.c_str(),
                HumanBytes(static_cast<double>(p.total_peak)).c_str(),
                HumanBytes(static_cast<double>(p.total_live)).c_str());
    TablePrinter table(
        {"subsystem", "peak", "live", "allocs", "frees", "alloc bytes"});
    for (size_t t = 0; t < kNumMemTags; ++t) {
      const MemTagStats& a = p.before[t];
      const MemTagStats& b = p.after[t];
      if (!active(a, b)) continue;
      table.AddRow({MemTagName(static_cast<MemTag>(t)),
                    HumanBytes(static_cast<double>(b.peak_bytes)),
                    HumanBytes(static_cast<double>(b.live_bytes)),
                    StrFormat("%lld", (long long)(b.allocs - a.allocs)),
                    StrFormat("%lld", (long long)(b.frees - a.frees)),
                    HumanBytes(
                        static_cast<double>(b.alloc_bytes - a.alloc_bytes))});
    }
    table.Print();
    std::printf("\n");
  }

  // Whole-round rollup: cumulative counts from the final snapshot; peaks are
  // per-phase maxima (the boundaries reset them).
  const std::vector<MemTagStats>& final_stats = phases.back().after;
  std::vector<int64_t> tag_peak(kNumMemTags, 0);
  int64_t run_peak = 0;
  for (const Phase& p : phases) {
    run_peak = std::max(run_peak, p.total_peak);
    for (size_t t = 0; t < kNumMemTags; ++t)
      tag_peak[t] = std::max(tag_peak[t], p.after[t].peak_bytes);
  }
  std::printf("whole round (peak %s)\n",
              HumanBytes(static_cast<double>(run_peak)).c_str());
  TablePrinter total(
      {"subsystem", "peak", "live", "allocs", "frees", "alloc bytes"});
  for (size_t t = 0; t < kNumMemTags; ++t) {
    const MemTagStats& s = final_stats[t];
    if (s.allocs == 0 && s.frees == 0) continue;
    total.AddRow({MemTagName(static_cast<MemTag>(t)),
                  HumanBytes(static_cast<double>(tag_peak[t])),
                  HumanBytes(static_cast<double>(s.live_bytes)),
                  StrFormat("%lld", (long long)s.allocs),
                  StrFormat("%lld", (long long)s.frees),
                  HumanBytes(static_cast<double>(s.alloc_bytes))});
  }
  total.Print();

  // Greppable one-liner (the ctest smoke pins nonzero graph + sim/events).
  const MemTagStats& gs = final_stats[static_cast<size_t>(MemTag::kGraph)];
  const MemTagStats& ss = final_stats[static_cast<size_t>(MemTag::kSimEvents)];
  std::printf("\nmemstat summary: graph allocs=%lld peak=%lld; sim/events "
              "allocs=%lld peak=%lld; total peak=%lld\n",
              (long long)gs.allocs,
              (long long)tag_peak[static_cast<size_t>(MemTag::kGraph)],
              (long long)ss.allocs,
              (long long)tag_peak[static_cast<size_t>(MemTag::kSimEvents)],
              (long long)run_peak);

  // The fastt-memstat/1 document doubles as --json output and as the
  // "memstat" section of a --report bundle, so it is rendered once here.
  std::string memstat_json;
  if (!args.json_path.empty() || !args.report_path.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").String("fastt-memstat/1");
    w.Key("model").String(spec.name);
    w.Key("batch").Int(batch);
    w.Key("gpus").Int(cluster.num_devices());
    w.Key("run_peak_bytes").Int(run_peak);
    w.Key("phases").BeginArray();
    for (const Phase& p : phases) {
      w.BeginObject();
      w.Key("name").String(p.name);
      w.Key("total_peak_bytes").Int(p.total_peak);
      w.Key("total_live_bytes").Int(p.total_live);
      w.Key("tags").BeginObject();
      for (size_t t = 0; t < kNumMemTags; ++t) {
        const MemTagStats& a = p.before[t];
        const MemTagStats& b = p.after[t];
        if (!active(a, b)) continue;
        w.Key(MemTagName(static_cast<MemTag>(t))).BeginObject();
        w.Key("peak_bytes").Int(b.peak_bytes);
        w.Key("live_bytes").Int(b.live_bytes);
        w.Key("allocs").Int(b.allocs - a.allocs);
        w.Key("frees").Int(b.frees - a.frees);
        w.Key("alloc_bytes").Int(b.alloc_bytes - a.alloc_bytes);
        w.EndObject();
      }
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.Key("totals").BeginObject();
    for (size_t t = 0; t < kNumMemTags; ++t) {
      const MemTagStats& s = final_stats[t];
      if (s.allocs == 0 && s.frees == 0) continue;
      w.Key(MemTagName(static_cast<MemTag>(t))).BeginObject();
      w.Key("peak_bytes").Int(tag_peak[t]);
      w.Key("live_bytes").Int(s.live_bytes);
      w.Key("allocs").Int(s.allocs);
      w.Key("frees").Int(s.frees);
      w.Key("alloc_bytes").Int(s.alloc_bytes);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    memstat_json = w.str();
  }
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    out << memstat_json << "\n";
    std::printf("wrote memstat JSON to %s\n", args.json_path.c_str());
  }
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back({"memstat", memstat_json});
  WriteRunArtifacts(args, nullptr, sections);
  return 0;
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
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    out << ProvenanceToJson(ft.provenance, ft.split_trials) << "\n";
    std::printf("\nwrote provenance JSON to %s\n", args.json_path.c_str());
  }
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back(
        {"provenance", ProvenanceToJson(ft.provenance, ft.split_trials)});
  WriteRunArtifacts(args, &ft.events, sections);
  return 0;
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
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    out << CalibrationToJson(spec.name, ft.calibration) << "\n";
    std::printf("\nwrote calibration JSON to %s\n", args.json_path.c_str());
  }
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back(
        {"calibration", CalibrationToJson(spec.name, ft.calibration)});
  WriteRunArtifacts(args, &ft.events, sections);
  return 0;
}

int CmdVerify(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);

  // The base graph every strategy for this model refers to: the
  // data-parallel replication (what StrategyCalculator hands OS-DPOS).
  DataParallelGraph dp = BuildDataParallel(spec.build, spec.name, batch,
                                           cluster.num_devices(),
                                           args.scaling);
  const std::vector<DeviceId> dp_placement =
      CanonicalDataParallelPlacement(dp);
  Graph graph = std::move(dp.graph);

  CompCostModel comp;
  CommCostModel comm;
  Strategy strategy;
  if (!args.strategy_path.empty()) {
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
    // Re-apply the recorded split list so slot ids in the strategy line up
    // with the rewritten graph. Unknown or unsplittable names are left for
    // the verifier to report (strategy.split.op) instead of aborting here.
    for (const SplitDecision& s : strategy.splits) {
      const OpId id = graph.FindOp(s.op_name);
      if (id == kInvalidOp || !CanSplit(graph, id, s.dim, s.num_splits))
        continue;
      SplitOperation(graph, id, s.dim, s.num_splits);
    }
    std::printf("verify: %s, batch %lld, %s, strategy %s (%zu splits)\n",
                spec.name.c_str(), (long long)batch,
                cluster.ToString().c_str(), args.strategy_path.c_str(),
                strategy.splits.size());
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
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 2;
    }
    out << DiagnosticsToJson(graph, result) << "\n";
    std::printf("wrote diagnostics JSON to %s\n", args.json_path.c_str());
  }
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back({"verify", DiagnosticsToJson(graph, result)});
  WriteRunArtifacts(args, nullptr, sections);
  return result.ok() ? 0 : 1;
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
    WriteRunArtifacts(args, &result.events);
    return 1;
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

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 2;
    }
    out << PortfolioToJson(spec.name, batch, cluster, result) << "\n";
    std::printf("wrote arena JSON to %s\n", args.json_path.c_str());
  }
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back(
        {"arena", PortfolioToJson(spec.name, batch, cluster, result)});
  WriteRunArtifacts(args, &result.events, sections);
  return 0;
}

// `fastt report` — the full workflow inside a fresh TelemetryContext: the
// tracer and heap tracker run for the whole workflow, every instrumented
// call site (including pool workers) lands in the request-scoped context,
// and the richest fastt-report/1 bundle is written at the end. This is the
// artifact a `fastt serve` request would return.
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
  // The report workflow doubles as a profiling window: the CPU sampler runs
  // across the whole run and lands as a top-N frame table plus a "profile"
  // section in the bundle. Start can fail (e.g. an outer profiler already
  // owns the timers); the report just goes without in that case.
  RegisterProfiledThread("report main");
  CpuProfilerOptions popts;
  popts.hz = args.profile_hz;
  popts.epoch_ns = context.tracer().epoch_ns();
  const bool profiling = CpuProfiler::Global().Start(popts);
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
  const TraceSummary summary = SummarizeTrace(context.tracer().Drain());
  SymbolizedProfile prof;
  if (profiling) prof = SymbolizeProfile(CpuProfiler::Global().Drain());

  std::printf("  %.1f samples/s, %d rounds, %zu splits; verifier: %d "
              "errors, %d warnings\n",
              SamplesPerSecond(ft), ft.rounds, ft.strategy.splits.size(),
              verify.errors, verify.warnings);
  if (profiling && prof.samples_total > 0) {
    std::printf("\n");
    std::fputs(RenderProfileTable(prof, args.top_n).c_str(), stdout);
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
  {
    // Whole-run heap rollup (per-phase detail lives in `fastt memstat`).
    JsonWriter w;
    w.BeginObject();
    w.Key("total_peak_bytes").Int(mem.total_peak_bytes());
    w.Key("total_allocs").Int(mem.total_allocs());
    w.Key("tags").BeginObject();
    for (size_t t = 0; t < kNumMemTags; ++t) {
      const MemTagStats s = mem.stats(static_cast<MemTag>(t));
      if (s.allocs == 0 && s.frees == 0) continue;
      w.Key(MemTagName(static_cast<MemTag>(t))).BeginObject();
      w.Key("peak_bytes").Int(s.peak_bytes);
      w.Key("allocs").Int(s.allocs);
      w.Key("alloc_bytes").Int(s.alloc_bytes);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    report.AddSection("memstat", w.str());
  }
  if (profiling && prof.samples_total > 0)
    report.AddSection(
        "profile",
        ProfileToJson(prof, {{"command", "report"}, {"model", spec.name}}));
  if (!report.Write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote run report to %s\n", out_path.c_str());
  return 0;
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

// `fastt profile` — run the OS-DPOS search in a loop under the sampling CPU
// profiler until --seconds of wall clock accumulates, then fold the stacks.
// This answers "where do the cycles go" below the span level: the tracer
// gives phase totals, the sampler gives the hot frames inside them.
int CmdProfile(const Args& args) {
  const ModelSpec* specp = RequireModel(args.model);
  if (specp == nullptr) return 2;
  const ModelSpec& spec = *specp;
  const int64_t batch = args.batch > 0 ? args.batch : spec.strong_batch;
  const Cluster cluster = MakeCluster(args);

  // Same bootstrap as search-profile: calibrate the cost models against one
  // simulated data-parallel run so the profiled search is the real one.
  auto dp = BuildDataParallel(spec.build, spec.name, batch,
                              cluster.num_devices(), args.scaling);
  const std::vector<DeviceId> placement = CanonicalDataParallelPlacement(dp);
  const Graph graph = std::move(dp.graph);
  SimOptions so;
  so.noise_cv = 0.03;
  so.seed = 11;
  const RunProfile profile =
      ExtractProfile(graph, Simulate(graph, placement, cluster, so));
  CompCostModel comp;
  CommCostModel comm;
  comp.AddProfile(profile);
  comm.AddProfile(profile);

  std::printf("profile: %s, batch %lld, %s, %d jobs, %d Hz for >= %.1f s\n",
              spec.name.c_str(), (long long)batch, cluster.ToString().c_str(),
              SearchJobs(), args.profile_hz, args.profile_seconds);

  // The tracer must run for sample->span attribution; its own dump is
  // discarded here (use search-profile for the timeline view).
  Tracer& tracer = Tracer::Global();
  tracer.SetCurrentThreadName("search main");
  tracer.Enable();
  RegisterProfiledThread("search main");
  CpuProfilerOptions popts;
  popts.hz = args.profile_hz;
  popts.epoch_ns = tracer.epoch_ns();
  if (!CpuProfiler::Global().Start(popts)) {
    std::fprintf(stderr, "cannot start CPU profiler\n");
    return 1;
  }
  // One small-model search is sub-millisecond; repeat until the wall-clock
  // floor so the sampler sees enough timer periods regardless of model size.
  const auto t0 = std::chrono::steady_clock::now();
  int reps = 0;
  int probes = 0;
  size_t splits = 0;
  double wall_s = 0.0;
  do {
    FASTT_TRACE_SPAN("profile/search");
    const OsDposResult os = OsDpos(graph, cluster, comp, comm);
    probes = os.probes;
    splits = os.splits.size();
    ++reps;
    wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } while (wall_s < args.profile_seconds);
  CpuProfiler::Global().Stop();
  tracer.Disable();
  tracer.Drain();  // spans served their purpose (attribution); drop them

  const ProfileDump dump = CpuProfiler::Global().Drain();
  const SymbolizedProfile prof = SymbolizeProfile(dump);
  std::printf("%d search repetitions (%d split probes, %zu splits each) in "
              "%.2f s\n\n",
              reps, probes, splits, wall_s);
  std::fputs(RenderProfileTable(prof, args.top_n).c_str(), stdout);
  std::printf("span-attributed: %.1f%% of %llu samples\n",
              prof.samples_total > 0
                  ? 100.0 * static_cast<double>(prof.span_attributed) /
                        static_cast<double>(prof.samples_total)
                  : 0.0,
              (unsigned long long)prof.samples_total);

  const std::map<std::string, std::string> params = {
      {"command", "profile"},
      {"model", spec.name},
      {"gpus", StrFormat("%d", args.gpus)},
      {"batch", StrFormat("%lld", (long long)batch)},
      {"jobs", StrFormat("%d", SearchJobs())},
      {"reps", StrFormat("%d", reps)}};
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    out << ProfileToJson(prof, params) << "\n";
    std::printf("wrote cpu profile to %s\n", args.json_path.c_str());
  }
  if (!args.folded_path.empty()) {
    std::ofstream out(args.folded_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.folded_path.c_str());
      return 1;
    }
    out << ProfileToFolded(prof);
    std::printf("wrote collapsed stacks to %s — feed to flamegraph.pl or "
                "speedscope\n",
                args.folded_path.c_str());
  }
  ReportSections sections;
  if (!args.report_path.empty())
    sections.push_back({"profile", ProfileToJson(prof, params)});
  WriteRunArtifacts(args, nullptr, sections);
  return 0;
}

int CmdProfDiff(const Args& args) {
  ProfDoc old_doc;
  ProfDoc new_doc;
  std::string error;
  if (!ReadProfDoc(args.model, &old_doc, &error)) {
    std::fprintf(stderr, "prof-diff: %s: %s\n", args.model.c_str(),
                 error.c_str());
    return 2;
  }
  if (!ReadProfDoc(args.path, &new_doc, &error)) {
    std::fprintf(stderr, "prof-diff: %s: %s\n", args.path.c_str(),
                 error.c_str());
    return 2;
  }
  const ProfDiffResult result = DiffProfiles(old_doc, new_doc, args.prof_diff);
  std::fputs(RenderProfDiff(result, args.prof_diff).c_str(), stdout);
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
    {"analyze",
     "fastt analyze <model> [--gpus N] [--servers S] [--batch B] [--json F]"},
    {"explain",
     "fastt explain <model> --op <name> [--gpus N] [--servers S] [--batch B] "
     "[--json F]"},
    {"calibrate",
     "fastt calibrate <model> [--gpus N] [--servers S] [--batch B] "
     "[--json F]"},
    {"search-profile",
     "fastt search-profile <model> [trace.json] [--gpus N] [--jobs N]"},
    {"memstat",
     "fastt memstat <model> [--gpus N] [--batch B] [--jobs N] [--json F]"},
    {"bench-diff",
     "fastt bench-diff <old.json> <new.json> [--threshold T] [--hard-factor "
     "F] [--min-repeats R]"},
    {"profile",
     "fastt profile <model> [--hz N] [--seconds S] [--gpus N] [--jobs N] "
     "[--json F] [--folded F] [--top N]"},
    {"prof-diff",
     "fastt prof-diff <old.json> <new.json> [--threshold PP] [--hard-factor "
     "F] [--min-samples N]"},
    {"verify",
     "fastt verify <model> [--strategy f] [--gpus N] [--servers S] "
     "[--batch B] [--json F]"},
    {"arena",
     "fastt arena <model> [--gpus N] [--servers S] [--batch B] "
     "[--budget-ms T] [--jobs N] [--json F]"},
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
               "         same strategy as --jobs 1), --metrics <out.json>,\n"
               "         --report <out.json> (fastt-report/1 bundle),\n"
               "         --openmetrics <out.txt> (Prometheus exposition),\n"
               "         --blackbox <out.json> (crash dump on fatal signal),\n"
               "         --log-level error|warn|info|debug (or\n"
               "         FASTT_LOG_LEVEL), --trace-search <out.json>\n"
               "         (Chrome trace of the search; also via\n"
               "         FASTT_TRACE_SEARCH=path) and --profile <out.json>\n"
               "         (sampling CPU profile of the whole command);\n"
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
  if (args.command == "models") {
    const int rc = CmdModels();
    WriteRunArtifacts(args, nullptr);
    return rc;
  }
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
    const int rc = CmdCompare(args);
    WriteRunArtifacts(args, nullptr);
    return rc;
  }
  if (args.command == "export") {
    if (args.model.empty() || args.path.empty())
      return CommandUsage(args.command);
    const int rc = CmdExport(args);
    WriteRunArtifacts(args, nullptr);
    return rc;
  }
  if (args.command == "trace") {
    if (args.model.empty() || args.path.empty())
      return CommandUsage(args.command);
    return CmdTrace(args);
  }
  if (args.command == "search-profile")
    return args.model.empty() ? CommandUsage(args.command)
                              : CmdSearchProfile(args);
  if (args.command == "memstat")
    return args.model.empty() ? CommandUsage(args.command) : CmdMemstat(args);
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
  if (args.command == "profile")
    return args.model.empty() ? CommandUsage(args.command) : CmdProfile(args);
  if (args.command == "prof-diff") {
    if (args.model.empty() || args.path.empty())
      return CommandUsage(args.command);
    return CmdProfDiff(args);
  }
  std::fprintf(stderr, "fastt: unknown command \"%s\"\n",
               args.command.c_str());
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
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
  if (!args.blackbox_path.empty()) InstallBlackbox(args.blackbox_path);
  if (args.jobs > 0) SetSearchJobs(args.jobs);
  if (args.trace_search_path.empty()) {
    if (const char* env = std::getenv("FASTT_TRACE_SEARCH");
        env != nullptr && *env != '\0')
      args.trace_search_path = env;
  }
  // search-profile owns the tracer itself (it enables, drains and writes);
  // for every other command --trace-search records the whole run's search
  // activity and the epilogue below writes it out.
  const bool trace_here =
      !args.trace_search_path.empty() && args.command != "search-profile";
  if (trace_here) {
    Tracer::Global().SetCurrentThreadName("search main");
    Tracer::Global().Enable();
  }
  // Likewise --profile: profile, prof-diff, search-profile and report manage
  // the sampler themselves; every other command is sampled whole here.
  const bool profile_here =
      !args.profile_path.empty() && args.command != "profile" &&
      args.command != "prof-diff" && args.command != "search-profile" &&
      args.command != "report";
  if (profile_here) {
    if (!trace_here) {
      // Sample->span attribution needs live spans even though this tracer
      // dump is never written out.
      Tracer::Global().SetCurrentThreadName("search main");
      Tracer::Global().Enable();
    }
    RegisterProfiledThread("main");
    CpuProfilerOptions popts;
    popts.hz = args.profile_hz;
    popts.epoch_ns = Tracer::Global().epoch_ns();
    CpuProfiler::Global().Start(popts);
  }
  int rc = 0;
  try {
    rc = Dispatch(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  ProfileDump prof_dump;
  if (profile_here) {
    CpuProfiler::Global().Stop();
    prof_dump = CpuProfiler::Global().Drain();
  }
  if (trace_here) {
    Tracer::Global().Disable();
    const TraceDump dump = Tracer::Global().Drain();
    std::ofstream out(args.trace_search_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n",
                   args.trace_search_path.c_str());
      return rc != 0 ? rc : 1;
    }
    out << (profile_here ? TraceToChromeJson(dump, prof_dump)
                         : TraceToChromeJson(dump))
        << "\n";
    std::printf("wrote search trace to %s (%zu spans)\n",
                args.trace_search_path.c_str(), dump.spans.size());
  } else if (profile_here) {
    Tracer::Global().Disable();
    Tracer::Global().Drain();
  }
  if (profile_here) {
    const SymbolizedProfile prof = SymbolizeProfile(prof_dump);
    std::ofstream out(args.profile_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.profile_path.c_str());
      return rc != 0 ? rc : 1;
    }
    out << ProfileToJson(prof, {{"command", args.command},
                                {"model", args.model}})
        << "\n";
    std::printf(
        "wrote cpu profile to %s (%llu samples, %.1f%% span-attributed)\n",
        args.profile_path.c_str(), (unsigned long long)prof.samples_total,
        prof.samples_total > 0
            ? 100.0 * static_cast<double>(prof.span_attributed) /
                  static_cast<double>(prof.samples_total)
            : 0.0);
  }
  return rc;
}
