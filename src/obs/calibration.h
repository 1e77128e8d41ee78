// Cost-model calibration auditing — how wrong the cost models were.
//
// FastT's placements are only as good as its adaptive cost models, and the
// paper's rollback loop exists precisely because those models are wrong at
// first. This module quantifies the wrongness: after each simulated
// pre-training round it joins the scheduler's predicted per-op compute costs
// and per-edge transfer costs against the realized ExecSim timings of the
// profiled run, producing per-op residuals, relative-error histograms
// (p50/p90/max), per-device-pair regression diagnostics (intercept/slope/R²,
// so parameter drift across rounds is visible), the stability-detector
// window statistics, and — for rounds that rolled back — a post-mortem
// naming the top mis-predicted ops behind the rollback.
//
// The join is plain data in, plain data out: the caller (StrategyCalculator)
// supplies the candidate schedule's predicted per-slot durations, the
// communication model *as of the search* (snapshotted before the profiled
// steps update it), and one realized simulation of the round.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cost/comm_cost.h"
#include "cost/stability.h"
#include "graph/graph.h"
#include "sim/exec_sim.h"

namespace fastt {

// One op's predicted-vs-realized execution time.
struct OpResidual {
  std::string name;
  DeviceId device = kInvalidDevice;
  double predicted_s = 0.0;
  double realized_s = 0.0;
  double abs_err_s = 0.0;  // |predicted - realized|
  double rel_err = 0.0;    // (predicted - realized) / realized
};

// One realized transfer's predicted-vs-realized time. A predicted 0 on a
// fitted pair means the model priced the tensor at (numerically) nothing;
// on an unknown pair it is the paper's explore-at-zero rule showing up as
// a -100 % residual — honest, not a bug.
struct CommResidual {
  DeviceId src = kInvalidDevice;
  DeviceId dst = kInvalidDevice;
  int64_t bytes = 0;
  double predicted_s = 0.0;
  double realized_s = 0.0;
  double rel_err = 0.0;
};

// Histogram summary over |rel_err| of a residual population.
struct ErrorStats {
  int n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
};

// Per-pair regression diagnostics at the time of the round's search, plus
// how well that fit priced the round's realized transfers.
struct CommPairFitRecord {
  DeviceId src = kInvalidDevice;
  DeviceId dst = kInvalidDevice;
  double intercept_s = 0.0;
  double slope_s_per_byte = 0.0;
  double r2 = 0.0;
  int64_t samples = 0;      // profiled transfers absorbed by the fit
  int round_transfers = 0;  // realized transfers joined this round
  double mean_rel_err = 0.0;
};

// Why a rolled-back round was mis-scheduled: the ops whose predictions were
// furthest from reality (descending absolute error).
struct RollbackPostmortem {
  bool rolled_back = false;
  bool oom = false;
  std::vector<OpResidual> top_mispredicted;
};

// Everything the calibration audit knows about one pre-training round.
struct CalibrationRound {
  int round = 0;  // 1-based, matching RoundSummary::round
  bool committed = false;
  bool oom = false;
  double predicted_makespan_s = 0.0;
  double measured_makespan_s = 0.0;
  double makespan_rel_err = 0.0;
  ErrorStats comp;  // per-op relative errors
  ErrorStats comm;  // per-transfer relative errors
  std::vector<OpResidual> residuals;  // every joined op, graph order
  std::vector<CommResidual> comm_residuals;
  std::vector<CommPairFitRecord> pairs;
  StabilityStats stability;
  RollbackPostmortem postmortem;
};

// Joins the candidate schedule's predictions against one realized run.
// `predicted_op_s` is indexed by slot (the candidate schedule's per-op
// durations); `comm_before` must be the model the scheduler consulted, i.e.
// snapshotted before this round's profiled steps updated it. Fills the
// residual tables, the error histograms, the pair diagnostics and the
// post-mortem candidates; the caller stamps round number, decision flags
// and stability stats.
CalibrationRound ComputeCalibration(const Graph& g,
                                    const std::vector<double>& predicted_op_s,
                                    const std::vector<DeviceId>& placement,
                                    const CommCostModel& comm_before,
                                    const SimResult& realized);

// Round-by-round text report: calibration summary table, per-pair fit drift
// and a post-mortem block per rolled-back round.
std::string RenderCalibrationReport(const std::vector<CalibrationRound>& rounds);

// One row per round (round, comp p50/p90/max, comm p50/p90, stability
// margin, decision) — the summary block `fastt analyze` embeds.
std::string RenderCalibrationSummary(
    const std::vector<CalibrationRound>& rounds);

// Residual rows per table and round that CalibrationToJson writes.
inline constexpr size_t kReportedResiduals = 64;

// Machine-readable report: {"fastt_calibration": 1, "model": ...,
// "rounds": [...]}. Each round keeps its error stats (over every joined op
// and transfer), pair fits and post-mortem, but of the residual tables only
// the kReportedResiduals op and comm rows with the largest |rel_err|,
// largest first (ties in table order): a full table is one row per op.
std::string CalibrationToJson(const std::string& model,
                              const std::vector<CalibrationRound>& rounds);

}  // namespace fastt
