// StrategyCalculator — the FastT workflow (paper §4).
//
// Pre-training stage: profile data parallelism, start from the fastest of it
// and the micro-batch pipelines cut by that profile on the same replica graph
// (or from greedy model parallelism if the model cannot fit one GPU), run a
// few profiled iterations, update the adaptive cost models, compute a new
// strategy with OS-DPOS, activate it (checkpoint + restart, accounted as
// overhead), and roll back if the measured per-iteration time regressed.
// Stop when the computation cost model is stable; then measure the fastest
// pipeline cut at twice the micro-batches as one last challenger. Profiled
// execution comes from the simulated testbed; FastT's algorithms only ever
// see the profiles.
#pragma once

#include <cstdint>
#include <string>

#include "core/data_parallel.h"
#include "core/os_dpos.h"
#include "cost/stability.h"
#include "obs/calibration.h"
#include "obs/event_log.h"
#include "sim/exec_sim.h"

namespace fastt {

struct CalculatorOptions {
  // Profiled training steps per pre-training round.
  int profile_iterations = 3;
  // Upper bound on pre-training rounds (stability usually stops earlier).
  int max_rounds = 8;
  // Simulated execution-time noise the profiler observes.
  double noise_cv = 0.03;
  // Cost-model stability rule: max relative change / rounds below it.
  double stability_tolerance = 0.05;
  int stability_patience = 3;
  // Checkpoint + session-restart cost per strategy activation (seconds of
  // simulated wall time; contributes to Table 4's strategy time).
  double restart_overhead_s = 5.0;
  // Feature toggles (ablations & Fig. 2 / Table 6 experiments).
  bool enable_split = true;
  bool enable_order_enforcement = true;
  bool use_critical_path_device = true;
  OsDposOptions os_dpos;
  uint64_t seed = 7;
  // Measurement iterations for the final reported per-iteration time.
  int measure_iterations = 5;
  // Keep placement-decision provenance (candidate tables, split trials) of
  // the committed strategy — what `fastt explain` renders. Forwarded to
  // DposOptions::record_provenance for every search the workflow runs.
  bool record_provenance = false;
  // Verify every round's candidate strategy (analysis/verifier.h) before
  // spending an activation on it. The cheap O(V+E) structural rules always
  // run; a candidate with an error-severity finding is rejected outright —
  // a rollback named by its rule id, with no restart or profiling spent.
  bool verify_rounds = true;
  // Also run the [full] rules (per-device peak memory under the declared
  // order, comm-model coverage) each round. Off by default: the memory walk
  // is O(V + E) too but touches every edge twice more per round.
  bool verify_full = false;
};

// One pre-training round of the workflow: what the scheduler predicted, what
// the profiled steps measured, and what the calculator decided. The paper
// reports only the end of this trajectory; keeping every round makes the
// cost-model convergence (predicted-vs-measured error shrinking) and the
// rollback behaviour inspectable.
struct RoundSummary {
  int round = 0;              // 1-based
  double predicted_s = 0.0;   // DPOS FT(o_exit) of the candidate strategy
  double measured_s = 0.0;    // profiled mean iteration time of the candidate
  double best_before_s = 0.0; // incumbent's measured time entering the round
  double rel_error = 0.0;     // (predicted - measured) / measured
  bool committed = false;     // candidate became the incumbent
  bool oom = false;           // candidate ran out of memory (forced rollback)
  int ops_replaced = 0;       // placements changed vs. the incumbent
  int splits = 0;             // split decisions in the candidate
  double algorithm_s = 0.0;   // wall time inside DPOS/OS-DPOS this round
  // Calibration digest of the round (full detail, including per-op residual
  // tables and rollback post-mortems, in CalculatorResult::calibration).
  double comp_err_p50 = 0.0;  // |rel err| percentiles of per-op comp costs
  double comp_err_p90 = 0.0;
  double comp_err_max = 0.0;
  double comm_err_p50 = 0.0;  // |rel err| percentiles of per-transfer costs
  double comm_err_p90 = 0.0;
  double stability_max_change = 0.0;  // StabilityDetector window statistics
  double stability_margin = 0.0;      // tolerance - max_change
  // Verifier verdict on the candidate (CalculatorOptions::verify_rounds).
  // A non-empty reject rule means the candidate never ran: measured_s,
  // rel_error and the calibration digest stay 0 for that round.
  int verify_errors = 0;
  int verify_warnings = 0;
  std::string verify_reject_rule;  // first error rule id, "" when clean
};

// A start strategy RunFastT measured at bootstrap, on its base graph: the
// DP graph, or the bare model when one replica does not fit one GPU. The
// doubled pipeline it measures after the rounds has the same form, on its
// own graph.
struct StartStrategy {
  std::string name;
  std::vector<DeviceId> placement;
  std::vector<OpId> order;  // the order it is measured and returned with
  double measured_s = 0.0;
  bool oom = false;
};

struct CalculatorResult {
  Graph graph;       // final training graph (with committed splits)
  Strategy strategy; // final placement / order / split list
  // Mean simulated per-iteration time of the final strategy.
  double iteration_s = 0.0;
  // Simulated wall-clock of the whole pre-training stage: profiling steps
  // (the start strategies' measured steps included) + restarts (what the
  // paper's Table 4 reports, since their strategy time is dominated by
  // profiled training and restarts).
  double strategy_time_s = 0.0;
  // Wall-clock seconds spent inside the DPOS/OS-DPOS calls (steady clock;
  // with --jobs > 1 the CPU time spent there is larger).
  double algorithm_time_s = 0.0;
  int rounds = 0;
  int rollbacks = 0;
  int activations = 0;
  // Every start strategy measured at bootstrap, and the name of the one
  // chosen: "data_parallel", "pipeline" (stages cut over every device),
  // "pipeline_<k>_server[s]" (over the first k servers' devices) or
  // "model_parallel" (the model does not fit one GPU).
  std::vector<StartStrategy> starts;
  std::string start_strategy;
  // The last challenger, measured after the rounds (paper §7/§8: micro-batch
  // after placement and order are known): the fastest feasible pipeline
  // start's stage map copied onto the DP graph at 2|D| micro-batches of the
  // same global batch (BuildDataParallel(global_batch, 2|D|, kStrong)), under
  // that graph's micro-batch-major order. Named after the start whose cut it
  // carries; the name is empty when it was not built (one start, a global
  // batch below 2|D|, or no pipeline start fits).
  StartStrategy doubled_pipeline;
  // What the returned strategy is: a start's name, "round <k>" for the last
  // round that committed, or the doubled pipeline's name; and the
  // micro-batch count of `graph` (|D| on the DP graph, 2|D| for the doubled
  // pipeline, 1 on the bare model).
  std::string returned_by;
  int micro_batches = 0;
  CompCostModel comp;
  CommCostModel comm;
  SimResult final_sim;  // one representative simulation of the final setup
  int64_t global_batch = 0;
  // Round-by-round trajectory of the pre-training loop (RunFastT only).
  std::vector<RoundSummary> round_history;
  // Per-round calibration audit: predicted-vs-realized residuals, error
  // histograms, comm-regression drift, rollback post-mortems (RunFastT only).
  std::vector<CalibrationRound> calibration;
  // Provenance of the committed strategy (CalculatorOptions::record_provenance
  // only): per-op candidate tables, OS-DPOS split trials, and the committed
  // schedule's predicted per-slot durations (predicted-vs-realized in
  // `fastt explain`; indexed by slot id of `graph`).
  std::vector<PlacementDecision> provenance;
  std::vector<SplitTrialRecord> split_trials;
  std::vector<double> predicted_op_s;
  // Structured JSONL narration of the whole workflow (probe, bootstrap,
  // rounds, rollbacks, stability stop, final measurement).
  EventLog events;
};

// Runs the complete FastT workflow for a model on a cluster.
// `batch` semantics follow `scaling` (global for strong, per-GPU for weak).
CalculatorResult RunFastT(const ModelBuildFn& build,
                          const std::string& model_name, int64_t batch,
                          Scaling scaling, const Cluster& cluster,
                          const CalculatorOptions& options = {});

// The bootstrap profile that seeds RunFastT's cost models:
// options.profile_iterations steps of (g, placement) with options.noise_cv
// under random dispatch (TF's default executor), step i seeded
// options.seed + 7919 i and folded into `comp` and `comm` in step order.
// Returns the mean iteration time, adds the steps' simulated time to *wall
// and sets *oom when a step runs out of memory.
double BootstrapProfile(const Graph& g, const std::vector<DeviceId>& placement,
                        const Cluster& cluster,
                        const CalculatorOptions& options, CompCostModel& comp,
                        CommCostModel& comm, double* wall = nullptr,
                        bool* oom = nullptr);

// The data-parallel baseline measured the same way (FIFO executor, canonical
// placement); shares the result type for easy comparison.
CalculatorResult RunDataParallelBaseline(const ModelBuildFn& build,
                                         const std::string& model_name,
                                         int64_t batch, Scaling scaling,
                                         const Cluster& cluster,
                                         const CalculatorOptions& options = {});

// Fixed per-iteration overhead outside the executor (session dispatch, feed,
// summaries). Added when converting makespans to reported speeds.
inline constexpr double kSessionOverheadS = 0.004;

// samples/s given a result (applies the session overhead).
double SamplesPerSecond(const CalculatorResult& result);

// Renders every recorded placement decision whose op name contains `needle`
// (split sub-ops of `needle` included — they share the parent's name prefix),
// with predicted-vs-realized durations from the final simulation, followed by
// the matching OS-DPOS split trials. Requires a result produced with
// CalculatorOptions::record_provenance; empty needle matches everything.
std::string ExplainOps(const CalculatorResult& result,
                       const std::string& needle);

}  // namespace fastt
