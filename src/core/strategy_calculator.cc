#include "core/strategy_calculator.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "analysis/verifier.h"
#include "core/model_parallel.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "sim/profiler.h"
#include "util/check.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One simulated step's outputs, written into its own slot by SimulateSteps.
struct Step {
  double makespan = 0.0;
  bool oom = false;
  RunProfile profile;  // filled when the caller feeds the cost models
  SimResult sim;       // kept for the last step only
};

// Runs `iters` independent simulated steps of (graph, placement, order),
// step i seeded with seed + i * seed_stride, through ParallelFor into
// per-index slots. Callers fold the slots serially in index order, so every
// number they derive is the same for any --jobs value.
std::vector<Step> SimulateSteps(const Graph& g,
                                const std::vector<DeviceId>& placement,
                                const std::vector<int64_t>& priorities,
                                DispatchMode dispatch, const Cluster& cluster,
                                int iters, double noise_cv, uint64_t seed,
                                uint64_t seed_stride, bool extract_profile) {
  std::vector<Step> steps(static_cast<size_t>(std::max(iters, 0)));
  ParallelFor(steps.size(), [&](size_t i) {
    SimOptions options;
    options.dispatch = dispatch;
    options.priorities = priorities;
    options.noise_cv = noise_cv;
    options.seed = seed + static_cast<uint64_t>(i) * seed_stride;
    SimResult sim = Simulate(g, placement, cluster, options);
    Step& step = steps[i];
    step.makespan = sim.makespan;
    step.oom = sim.oom;
    if (extract_profile) step.profile = ExtractProfile(g, sim);
    if (i + 1 == steps.size()) step.sim = std::move(sim);
  });
  return steps;
}

// Runs `iters` profiled steps of (graph, placement, order) on the simulated
// testbed, feeding the cost models; returns the mean iteration time and adds
// the simulated wall time to *wall. `last` receives the final step's
// SimResult (the realized run the calibration audit joins against).
double ProfileSteps(const Graph& g, const std::vector<DeviceId>& placement,
                    const std::vector<int64_t>& priorities,
                    DispatchMode dispatch, const Cluster& cluster, int iters,
                    double noise_cv, uint64_t seed, CompCostModel& comp,
                    CommCostModel& comm, double* wall,
                    bool* oom = nullptr, SimResult* last = nullptr) {
  std::vector<Step> steps =
      SimulateSteps(g, placement, priorities, dispatch, cluster, iters,
                    noise_cv, seed, 7919, true);
  double total = 0.0;
  for (const Step& step : steps) {
    comp.AddProfile(step.profile);
    comm.AddProfile(step.profile);
    total += step.makespan;
    if (oom && step.oom) *oom = true;
  }
  if (last && !steps.empty()) *last = std::move(steps.back().sim);
  if (wall) *wall += total;
  return total / iters;
}

// Measurement-only runs (no cost-model updates).
double MeasureSteps(const Graph& g, const std::vector<DeviceId>& placement,
                    const std::vector<int64_t>& priorities,
                    DispatchMode dispatch, const Cluster& cluster, int iters,
                    double noise_cv, uint64_t seed, SimResult* last,
                    bool* oom = nullptr) {
  std::vector<Step> steps =
      SimulateSteps(g, placement, priorities, dispatch, cluster, iters,
                    noise_cv, seed + 1000003, 104729, false);
  double total = 0.0;
  for (const Step& step : steps) {
    total += step.makespan;
    if (oom && step.oom) *oom = true;
  }
  if (last && !steps.empty()) *last = std::move(steps.back().sim);
  return total / iters;
}

// Communication probe: a throwaway graph whose edges exercise every ordered
// device pair at two tensor sizes, so each pair's linear regression can
// recover latency and bandwidth. This is the paper's "try out different
// placements" bootstrap, in the shape of the all-pairs bandwidth
// microbenchmark practitioners run before training.
void ProbeCommunication(const Cluster& cluster, double noise_cv,
                        uint64_t seed, CommCostModel& comm, double* wall) {
  const int32_t n = cluster.num_devices();
  if (n < 2) return;
  Graph g("comm_probe");
  std::vector<DeviceId> placement;
  auto add_op = [&](const std::string& name, int64_t bytes, DeviceId d) {
    Operation op;
    op.name = name;
    op.type = OpType::kIdentity;
    op.output_shape = TensorShape{bytes / 4};
    op.bytes_touched = bytes;
    const OpId id = g.AddOp(std::move(op));
    placement.push_back(d);
    return id;
  };
  const int64_t sizes[2] = {int64_t{1} << 20, int64_t{64} << 20};
  for (DeviceId i = 0; i < n; ++i) {
    for (DeviceId j = 0; j < n; ++j) {
      if (i == j) continue;
      for (int s = 0; s < 2; ++s) {
        const OpId a = add_op(StrFormat("probe/%d_%d_%d/src", i, j, s),
                              sizes[s], i);
        const OpId b = add_op(StrFormat("probe/%d_%d_%d/dst", i, j, s),
                              sizes[s], j);
        g.AddEdge(a, b, sizes[s]);
      }
    }
  }
  SimOptions options;
  options.noise_cv = noise_cv;
  options.seed = seed;
  options.track_memory = false;
  const SimResult sim = Simulate(g, placement, cluster, options);
  const RunProfile profile = ExtractProfile(g, sim);
  comm.AddProfile(profile);
  if (wall) *wall += sim.makespan;
}

// The cost keys the stability rule tracks: one per live op of `g`.
StabilityKeys CostKeys(const Graph& g) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<size_t>(g.num_live_ops()));
  for (OpId id : g.LiveOps()) keys.push_back(g.op(id).CostKey());
  return StabilityKeys(keys);
}

// Ops whose device assignment differs between the incumbent and candidate
// strategies. Both graphs derive from the same base graph, so slot ids in
// the shared prefix refer to the same ops; ops live in only one of the two
// (split in the other) are not counted.
int CountReplacedOps(const Graph& a, const std::vector<DeviceId>& pa,
                     const Graph& b, const std::vector<DeviceId>& pb) {
  const int32_t n = std::min(a.num_slots(), b.num_slots());
  int replaced = 0;
  for (OpId id = 0; id < n; ++id) {
    if (a.op(id).dead || b.op(id).dead) continue;
    if (pa[static_cast<size_t>(id)] != pb[static_cast<size_t>(id)])
      ++replaced;
  }
  return replaced;
}

}  // namespace

double BootstrapProfile(const Graph& g, const std::vector<DeviceId>& placement,
                        const Cluster& cluster,
                        const CalculatorOptions& options, CompCostModel& comp,
                        CommCostModel& comm, double* wall, bool* oom) {
  return ProfileSteps(g, placement, {}, DispatchMode::kRandom, cluster,
                      options.profile_iterations, options.noise_cv,
                      options.seed, comp, comm, wall, oom);
}

double SamplesPerSecond(const CalculatorResult& result) {
  return static_cast<double>(result.global_batch) /
         (result.iteration_s + kSessionOverheadS);
}

std::string ExplainOps(const CalculatorResult& result,
                       const std::string& needle) {
  std::string out;
  int matched = 0;
  for (const PlacementDecision& dec : result.provenance) {
    if (dec.op_name.find(needle) == std::string::npos) continue;
    ++matched;
    const size_t slot = static_cast<size_t>(dec.op);
    const double predicted = slot < result.predicted_op_s.size()
                                 ? result.predicted_op_s[slot]
                                 : -1.0;
    double realized = -1.0;
    if (slot < result.final_sim.op_records.size() &&
        result.final_sim.op_records[slot].device != kInvalidDevice)
      realized = result.final_sim.op_records[slot].duration();
    out += RenderPlacementDecision(dec, predicted, realized);
  }
  const std::string trials = RenderSplitTrials(result.split_trials, needle);
  if (!trials.empty()) out += "split trials:\n" + trials;
  if (matched == 0 && trials.empty()) {
    const bool any_commit =
        std::any_of(result.round_history.begin(), result.round_history.end(),
                    [](const RoundSummary& r) { return r.committed; });
    if (!result.provenance.empty())
      out += StrFormat("no recorded op matches \"%s\"\n", needle.c_str());
    else if (result.strategy.micro_batches != 0)
      out += StrFormat("the returned strategy is the %s cut at %d "
                       "micro-batches, which has no DPOS provenance\n",
                       result.returned_by.c_str(),
                       result.strategy.micro_batches);
    else if (!any_commit)
      out += StrFormat("no round committed: the returned strategy is the %s "
                       "start, which has no DPOS provenance\n",
                       result.start_strategy.c_str());
    else
      out += "no provenance recorded (run with record_provenance)\n";
  }
  return out;
}

CalculatorResult RunDataParallelBaseline(const ModelBuildFn& build,
                                         const std::string& model_name,
                                         int64_t batch, Scaling scaling,
                                         const Cluster& cluster,
                                         const CalculatorOptions& options) {
  CalculatorResult result;
  DataParallelGraph dp = BuildDataParallel(build, model_name, batch,
                                           cluster.num_devices(), scaling);
  result.global_batch = dp.global_batch;
  const std::vector<DeviceId> placement = CanonicalDataParallelPlacement(dp);
  // The TF default executor drains its ready queue in effectively arbitrary
  // order (inter-op thread pool) — DispatchMode::kRandom.
  result.iteration_s =
      MeasureSteps(dp.graph, placement, {}, DispatchMode::kRandom, cluster,
                   options.measure_iterations, options.noise_cv,
                   options.seed, &result.final_sim);
  result.strategy.placement = placement;
  result.strategy.execution_order = dp.graph.TopoOrder();
  result.graph = std::move(dp.graph);
  return result;
}

CalculatorResult RunFastT(const ModelBuildFn& build,
                          const std::string& model_name, int64_t batch,
                          Scaling scaling, const Cluster& cluster,
                          const CalculatorOptions& options) {
  FASTT_SCOPED_TIMER("calculator/run_fastt");
  CalculatorResult result;

  // ---- choose the start strategies (paper §4 / §5.2, §7/§8) ----------------
  // If one replica (at its per-replica batch) fits on one GPU, the input
  // graph is the data-parallel replication (FastT then searches for
  // something better than pure DP); otherwise the input is the bare model
  // with a model-parallel placement.
  const int64_t replica_batch =
      scaling == Scaling::kStrong
          ? std::max<int64_t>(1, batch / cluster.num_devices())
          : batch;
  Graph probe(model_name);
  build(probe, "", replica_batch);
  const bool fits = FitsOnOneDevice(probe, cluster);

  Graph base;
  PipelineSegments segments;  // of `base`, when replicated
  std::vector<StartStrategy>& starts = result.starts;
  const bool replicated = fits && cluster.num_devices() > 1;
  if (replicated) {
    DataParallelGraph dp = BuildDataParallel(build, model_name, batch,
                                             cluster.num_devices(), scaling);
    result.global_batch = dp.global_batch;
    starts.push_back({"data_parallel", CanonicalDataParallelPlacement(dp),
                      dp.graph.TopoOrder()});
    base = std::move(dp.graph);
  } else {
    // Single device, or model too large to replicate: operate on the bare
    // model graph. (Weak scaling with an unreplicable model still trains the
    // per-GPU batch; the devices jointly hold one replica.)
    result.global_batch = batch;
    base = std::move(probe);
    starts.push_back({fits ? "data_parallel" : "model_parallel",
                      fits ? std::vector<DeviceId>(
                                 static_cast<size_t>(base.num_slots()), 0)
                           : GreedyModelParallelPlacement(base, cluster),
                      base.TopoOrder()});
  }

  // ---- pre-training: profile, recompute, activate or roll back -------------
  StabilityDetector stability(options.stability_tolerance,
                              options.stability_patience);
  const double probe_before_s = result.strategy_time_s;
  ProbeCommunication(cluster, options.noise_cv, options.seed + 17,
                     result.comm, &result.strategy_time_s);
  result.events.Emit("comm_probe")
      .Int("devices", cluster.num_devices())
      .Number("simulated_s", result.strategy_time_s - probe_before_s);
  // The bootstrap profile runs the first start under the default executor
  // (random dispatch, TF's inter-op pool) and alone seeds the cost models.
  bool bootstrap_oom = false;
  const double bootstrap_s = BootstrapProfile(
      base, starts[0].placement, cluster, options, result.comp, result.comm,
      &result.strategy_time_s, &bootstrap_oom);
  if (replicated) {
    // The GPipe-style pipeline with one micro-batch per replica (with
    // M = |D| micro-batches the pipeline graph is this DP graph), its stages
    // cut by the bootstrap profile over every device and, on several servers,
    // over the first k servers' devices for each k < S: a cut that crosses
    // the slow inter-server link can lose to one that stays off it.
    segments = SegmentPipeline(base, cluster, result.comp);
    const double headroom = options.os_dpos.dpos.memory_headroom;
    starts.push_back({"pipeline",
                      PipelinePlacement(segments, cluster,
                                        cluster.num_devices(), headroom),
                      segments.order});
    for (DeviceId n = 1, k = 0; n < cluster.num_devices(); ++n) {
      if (cluster.device(n).server == cluster.device(n - 1).server) continue;
      ++k;
      starts.push_back(
          {StrFormat("pipeline_%d_server%s", k, k == 1 ? "" : "s"),
           PipelinePlacement(segments, cluster, n, headroom), segments.order});
    }
  }

  // With several starts, each is measured as it would be returned: under
  // its declared order when order enforcement is on, as the rounds are.
  // These steps only time the starts; they do not feed the cost models.
  const bool enforce = starts.size() > 1 && options.enable_order_enforcement;
  const DispatchMode start_dispatch =
      enforce ? DispatchMode::kPriority : DispatchMode::kRandom;
  auto start_priorities = [&](const StartStrategy& s) {
    return enforce ? PrioritiesFromOrder(s.order, base.num_slots())
                   : std::vector<int64_t>{};
  };
  if (starts.size() == 1) {
    starts[0].measured_s = bootstrap_s;
    starts[0].oom = bootstrap_oom;
  } else {
    for (StartStrategy& s : starts) {
      s.measured_s = MeasureSteps(
          base, s.placement, start_priorities(s), start_dispatch, cluster,
          options.profile_iterations, options.noise_cv, options.seed + 524287,
          nullptr, &s.oom);
      result.strategy_time_s += s.measured_s * options.profile_iterations;
    }
  }
  // The fastest start that fits is the incumbent. When none fits, the first
  // stays, and the first feasible round candidate replaces it.
  size_t chosen = 0;
  for (size_t i = 1; i < starts.size(); ++i)
    if (!starts[i].oom && (starts[chosen].oom ||
                           starts[i].measured_s < starts[chosen].measured_s))
      chosen = i;
  // Switching away from the profiled start is one more restart.
  if (chosen != 0) result.strategy_time_s += options.restart_overhead_s;
  const StartStrategy& start = starts[chosen];
  result.start_strategy = start.name;
  result.returned_by = start.name;

  Graph current_graph = base;
  StabilityKeys current_keys = CostKeys(current_graph);
  std::vector<DeviceId> current_placement = start.placement;
  std::vector<int64_t> current_priorities = start_priorities(start);
  DispatchMode current_dispatch = start_dispatch;
  double current_measured = start.measured_s;
  bool current_oom = start.oom;
  Strategy current_strategy;
  current_strategy.placement = start.placement;
  current_strategy.execution_order = start.order;
  {
    EventLog::Builder event = result.events.Emit("bootstrap");
    event.Str("start_strategy", start.name)
        .Int("ops", current_graph.num_live_ops())
        .Int("profile_iterations", options.profile_iterations)
        .Number("measured_iteration_s", current_measured)
        .Bool("oom", current_oom);
    for (const StartStrategy& s : starts)
      event.Number(s.name + "_measured_s", s.measured_s)
          .Bool(s.name + "_oom", s.oom);
  }

  for (int round = 0; round < options.max_rounds; ++round) {
    ++result.rounds;
    const double round_algo_before = result.algorithm_time_s;

    // Recompute the strategy from the updated cost models. OS-DPOS always
    // takes the *base* graph (DP replication or bare model) so split
    // decisions are revisited as costs sharpen, not stacked blindly.
    const auto algo_start = Clock::now();
    OsDposOptions os = options.os_dpos;
    os.dpos.use_critical_path_device = options.use_critical_path_device;
    os.dpos.record_provenance = options.record_provenance;
    OsDposResult candidate;
    if (options.enable_split) {
      candidate = OsDpos(base, cluster, result.comp, result.comm, os);
    } else {
      candidate.graph = base;
      candidate.schedule =
          Dpos(base, cluster, result.comp, result.comm, os.dpos);
    }
    result.algorithm_time_s += SecondsSince(algo_start);

    // Gatekeeper: verify the candidate before spending a restart on it. A
    // structurally invalid strategy (cyclic rewrite, unplaced op, order that
    // contradicts the deps, ...) would crash or deadlock a real session; the
    // verifier turns that into a named, zero-cost rejection.
    RoundSummary summary;
    summary.round = result.rounds;
    if (options.verify_rounds) {
      VerifierOptions verify_options;
      verify_options.cheap_only = !options.verify_full;
      verify_options.memory_headroom = os.dpos.memory_headroom;
      const VerifyResult verdict =
          VerifyStrategy(candidate.graph, candidate.schedule.strategy, cluster,
                         &result.comm, verify_options);
      summary.verify_errors = verdict.errors;
      summary.verify_warnings = verdict.warnings;
      CurrentMetrics().AddCounter("verifier/round_checks");
      result.events.Emit("verify")
          .Int("round", summary.round)
          .Bool("ok", verdict.ok())
          .Int("errors", verdict.errors)
          .Int("warnings", verdict.warnings)
          .Int("rules_checked", verdict.rules_checked)
          .Str("first_error_rule", verdict.first_error_rule());
      if (!verdict.ok()) {
        summary.verify_reject_rule = verdict.first_error_rule();
        summary.best_before_s = current_measured;
        summary.splits = static_cast<int>(candidate.splits.size());
        summary.algorithm_s = result.algorithm_time_s - round_algo_before;
        ++result.rollbacks;
        CurrentMetrics().AddCounter("verifier/round_rejects");
        result.events.Emit("verify_reject")
            .Int("round", summary.round)
            .Str("rule", summary.verify_reject_rule)
            .Str("message", verdict.diagnostics.empty()
                                ? ""
                                : verdict.diagnostics.front().message);
        result.round_history.push_back(summary);
        // The incumbent keeps training; the cost models saw no new profile,
        // so fold the round into the stability window and move on.
        stability.Observe(result.comp, cluster.num_devices(), current_keys);
        if (stability.IsStable()) {
          result.events.Emit("stable").Int("round", result.rounds);
          break;
        }
        continue;
      }
    }

    const std::vector<int64_t> priorities =
        options.enable_order_enforcement
            ? PrioritiesFromOrder(candidate.schedule.strategy.execution_order,
                                  candidate.graph.num_slots())
            : std::vector<int64_t>{};
    const DispatchMode dispatch = options.enable_order_enforcement
                                      ? DispatchMode::kPriority
                                      : DispatchMode::kRandom;

    // Activate (checkpoint/restart) and measure via profiled steps. The comm
    // model is snapshotted first: the calibration audit must price this
    // round's transfers with the model the scheduler consulted, not the one
    // the profiled steps are about to update.
    result.strategy_time_s += options.restart_overhead_s;
    ++result.activations;
    bool candidate_oom = false;
    const CommCostModel comm_before = result.comm;
    SimResult round_sim;
    const double measured = ProfileSteps(
        candidate.graph, candidate.schedule.strategy.placement, priorities,
        dispatch, cluster, options.profile_iterations, options.noise_cv,
        options.seed + static_cast<uint64_t>(round + 1) * 31337, result.comp,
        result.comm, &result.strategy_time_s, &candidate_oom, &round_sim);

    // The candidate schedule's per-slot predicted durations — what the
    // calibration audit and `fastt explain` compare against realized times.
    std::vector<double> predicted_op(
        static_cast<size_t>(candidate.graph.num_slots()), 0.0);
    for (OpId id : candidate.graph.LiveOps())
      predicted_op[static_cast<size_t>(id)] =
          candidate.schedule.finish_time[static_cast<size_t>(id)] -
          candidate.schedule.start_time[static_cast<size_t>(id)];

    summary.predicted_s = candidate.schedule.ft_exit;
    summary.measured_s = measured;
    summary.best_before_s = current_measured;
    summary.rel_error =
        measured > 0.0 ? (summary.predicted_s - measured) / measured : 0.0;
    summary.oom = candidate_oom;
    summary.ops_replaced = CountReplacedOps(
        current_graph, current_placement, candidate.graph,
        candidate.schedule.strategy.placement);
    summary.splits = static_cast<int>(candidate.splits.size());
    summary.algorithm_s = result.algorithm_time_s - round_algo_before;

    // An out-of-memory run crashes a real session: always roll back. Any
    // feasible candidate beats an incumbent that runs out of memory.
    if (!candidate_oom && (current_oom || measured <= current_measured)) {
      summary.committed = true;
      current_oom = false;
      current_graph = candidate.graph;
      current_keys = CostKeys(current_graph);
      current_placement = candidate.schedule.strategy.placement;
      current_priorities = priorities;
      current_dispatch = dispatch;
      current_measured = measured;
      current_strategy = candidate.schedule.strategy;
      result.provenance = std::move(candidate.schedule.provenance);
      result.split_trials = std::move(candidate.trials);
      result.predicted_op_s = predicted_op;
      result.returned_by = StrFormat("round %d", summary.round);
    } else {
      // Slower than what we had: roll back (another restart).
      ++result.rollbacks;
      result.strategy_time_s += options.restart_overhead_s;
    }

    // Calibration audit: join the candidate's predictions against the last
    // profiled step, then fold the stability observation (paper's stopping
    // rule, unchanged) into the same record.
    CalibrationRound cal =
        ComputeCalibration(candidate.graph, predicted_op,
                           candidate.schedule.strategy.placement, comm_before,
                           round_sim);
    cal.round = summary.round;
    cal.committed = summary.committed;
    cal.oom = candidate_oom;
    cal.predicted_makespan_s = summary.predicted_s;
    cal.measured_makespan_s = summary.measured_s;
    cal.makespan_rel_err = summary.rel_error;
    cal.postmortem.rolled_back = !summary.committed;
    cal.postmortem.oom = candidate_oom;

    // Pre-training ends when the cost models are stable (paper's rule).
    stability.Observe(result.comp, cluster.num_devices(), current_keys);
    const StabilityStats& stab = stability.last_stats();
    cal.stability = stab;
    summary.comp_err_p50 = cal.comp.p50;
    summary.comp_err_p90 = cal.comp.p90;
    summary.comp_err_max = cal.comp.max;
    summary.comm_err_p50 = cal.comm.p50;
    summary.comm_err_p90 = cal.comm.p90;
    summary.stability_max_change = stab.max_change;
    summary.stability_margin = stab.margin;

    result.events.Emit("round")
        .Int("round", summary.round)
        .Number("predicted_s", summary.predicted_s)
        .Number("measured_s", summary.measured_s)
        .Number("best_before_s", summary.best_before_s)
        .Number("cost_model_rel_error", summary.rel_error)
        .Int("ops_replaced", summary.ops_replaced)
        .Int("splits", summary.splits)
        .Number("algorithm_s", summary.algorithm_s)
        .Number("restart_overhead_s",
                options.restart_overhead_s *
                    (summary.committed ? 1.0 : 2.0))
        .Bool("committed", summary.committed)
        .Number("comp_err_p50", cal.comp.p50)
        .Number("comp_err_p90", cal.comp.p90)
        .Number("comm_err_p50", cal.comm.p50)
        .Number("comm_err_p90", cal.comm.p90)
        .Str("decision", summary.committed       ? "commit"
                         : summary.oom           ? "rollback_oom"
                                                 : "rollback_slower");
    result.events.Emit("stability")
        .Int("round", summary.round)
        .Int("entries", stab.entries)
        .Number("max_change", stab.max_change)
        .Number("mean_change", stab.mean_change)
        .Number("stddev_change", stab.stddev_change)
        .Number("tolerance", stab.tolerance)
        .Number("margin", stab.margin)
        .Bool("new_entries", stab.new_entries)
        .Int("stable_rounds", stab.stable_rounds);
    if (!summary.committed && !cal.postmortem.top_mispredicted.empty()) {
      const OpResidual& worst = cal.postmortem.top_mispredicted.front();
      result.events.Emit("rollback_postmortem")
          .Int("round", summary.round)
          .Str("cause", candidate_oom ? "oom" : "slower")
          .Str("worst_op", worst.name)
          .Number("worst_predicted_s", worst.predicted_s)
          .Number("worst_realized_s", worst.realized_s)
          .Number("worst_rel_err", worst.rel_err)
          .Int("mispredicted_ops_reported",
               static_cast<int64_t>(cal.postmortem.top_mispredicted.size()));
    }
    result.round_history.push_back(summary);
    result.calibration.push_back(std::move(cal));

    if (stability.IsStable()) {
      result.events.Emit("stable").Int("round", result.rounds);
      break;
    }
  }

  // ---- after the rounds: the best pipeline cut at twice the micro-batches ---
  // The paper's §7/§8 splits the mini-batch further once placement and order
  // are known. A contiguous stage cut does not depend on the micro-batch
  // count, so the fastest feasible pipeline start's stage map carries over to
  // the DP graph at 2|D| micro-batches of the same global batch without a new
  // profile. It is one last challenger, measured as returned and charged as
  // a round is (one restart to activate it, one more to roll back); its
  // steps do not feed the cost models.
  const int doubled_m = 2 * cluster.num_devices();
  const StartStrategy* cut = nullptr;
  for (size_t i = 1; i < starts.size(); ++i)
    if (!starts[i].oom &&
        (cut == nullptr || starts[i].measured_s < cut->measured_s))
      cut = &starts[i];
  bool rebuild_dp = false;
  if (cut != nullptr && result.global_batch >= doubled_m) {
    // The rounds' OS-DPOS working set sets the peak memory, so the doubled
    // graph is built only after the DP graph, and an incumbent start that
    // shares its chunks, are released. The DP graph is rebuilt, a pure
    // function of model, batch and |D|, only if the challenger loses, and
    // only once the doubled graph is gone.
    const bool incumbent_is_start = std::none_of(
        result.round_history.begin(), result.round_history.end(),
        [](const RoundSummary& r) { return r.committed; });
    base = Graph();
    if (incumbent_is_start) current_graph = Graph();
    DataParallelGraph doubled_dp =
        BuildDataParallel(build, model_name, result.global_batch, doubled_m,
                          Scaling::kStrong);
    // The copy reads only the segment numbering, so the segments go unpriced.
    const PipelineSegments doubled_segments =
        SegmentPipeline(doubled_dp.graph, cluster, CompCostModel{});
    StartStrategy& doubled = result.doubled_pipeline;
    doubled = {cut->name,
               CopyStageMap(segments, cut->placement, doubled_segments),
               doubled_segments.order};
    const std::vector<int64_t> priorities =
        enforce ? PrioritiesFromOrder(doubled.order,
                                      doubled_dp.graph.num_slots())
                : std::vector<int64_t>{};
    result.strategy_time_s += options.restart_overhead_s;
    doubled.measured_s = MeasureSteps(
        doubled_dp.graph, doubled.placement, priorities, start_dispatch,
        cluster, options.profile_iterations, options.noise_cv,
        options.seed + 524287, nullptr, &doubled.oom);
    result.strategy_time_s += doubled.measured_s * options.profile_iterations;
    const bool wins = !doubled.oom && (current_oom ||
                                       doubled.measured_s < current_measured);
    result.events.Emit("doubled_pipeline")
        .Str("cut", doubled.name)
        .Int("micro_batches", doubled_m)
        .Int("ops", doubled_dp.graph.num_live_ops())
        .Number("measured_s", doubled.measured_s)
        .Number("best_before_s", current_measured)
        .Bool("oom", doubled.oom)
        .Bool("committed", wins);
    if (wins) {
      current_graph = std::move(doubled_dp.graph);
      current_placement = doubled.placement;
      current_priorities = priorities;
      current_dispatch = start_dispatch;
      current_measured = doubled.measured_s;
      current_oom = false;
      current_strategy = Strategy{};
      current_strategy.placement = doubled.placement;
      current_strategy.execution_order = doubled.order;
      current_strategy.micro_batches = doubled_m;
      // The returned strategy has no DPOS provenance.
      result.provenance.clear();
      result.split_trials.clear();
      result.predicted_op_s.clear();
      result.returned_by = doubled.name;
    } else {
      result.strategy_time_s += options.restart_overhead_s;
      rebuild_dp = incumbent_is_start;
    }
  }
  if (rebuild_dp)
    current_graph = BuildDataParallel(build, model_name, batch,
                                      cluster.num_devices(), scaling)
                        .graph;
  result.micro_batches = current_strategy.micro_batches != 0
                             ? current_strategy.micro_batches
                         : replicated ? cluster.num_devices()
                                      : 1;

  // ---- normal training: measure the final strategy --------------------------
  result.iteration_s = MeasureSteps(
      current_graph, current_placement, current_priorities, current_dispatch,
      cluster, options.measure_iterations, options.noise_cv,
      options.seed + 999331, &result.final_sim);
  result.graph = std::move(current_graph);
  result.strategy = std::move(current_strategy);
  result.strategy.predicted_makespan = current_measured;

  // Algorithm time is also part of the simulated strategy time.
  result.strategy_time_s += result.algorithm_time_s;
  result.events.Emit("final")
      .Str("model", model_name)
      .Str("returned_by", result.returned_by)
      .Int("micro_batches", result.micro_batches)
      .Number("iteration_s", result.iteration_s)
      .Int("rounds", result.rounds)
      .Int("rollbacks", result.rollbacks)
      .Int("activations", result.activations)
      .Int("splits", static_cast<int64_t>(result.strategy.splits.size()))
      .Number("strategy_time_s", result.strategy_time_s)
      .Number("algorithm_time_s", result.algorithm_time_s)
      .Bool("oom", result.final_sim.oom);

  MetricsRegistry& metrics = CurrentMetrics();
  metrics.AddCounter("calculator/runs");
  metrics.AddCounter("calculator/rounds", result.rounds);
  metrics.AddCounter("calculator/rollbacks", result.rollbacks);
  metrics.AddCounter("calculator/activations", result.activations);
  metrics.SetGauge("calculator/last_iteration_s", result.iteration_s);
  metrics.SetGauge("calculator/last_strategy_time_s", result.strategy_time_s);
  return result;
}

}  // namespace fastt
