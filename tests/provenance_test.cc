// Placement-decision provenance and cost-model calibration: the records
// behind `fastt explain` / `fastt calibrate`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/strategy_calculator.h"
#include "models/model_zoo.h"
#include "obs/calibration.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "sim/exec_sim.h"
#include "util/strings.h"

namespace fastt {
namespace {

// One provenance-recording FastT run shared by the tests below (the workflow
// is deterministic for a fixed seed, and re-running it per test is the
// expensive part).
const CalculatorResult& LenetWithProvenance() {
  static const CalculatorResult* ft = [] {
    const ModelSpec& spec = FindModel("lenet");
    CalculatorOptions options;
    options.record_provenance = true;
    return new CalculatorResult(RunFastT(spec.build, spec.name,
                                         spec.strong_batch, Scaling::kStrong,
                                         Cluster::SingleServer(2), options));
  }();
  return *ft;
}

TEST(Provenance, RecordsEveryLiveOpWithFullCandidateTable) {
  const CalculatorResult& ft = LenetWithProvenance();
  ASSERT_FALSE(ft.provenance.empty());
  EXPECT_EQ(ft.provenance.size(),
            static_cast<size_t>(ft.graph.num_live_ops()));
  for (const PlacementDecision& dec : ft.provenance) {
    ASSERT_EQ(dec.candidates.size(), 2u) << dec.op_name;
    EXPECT_GE(dec.chosen, 0);
    EXPECT_LT(dec.chosen, 2);
    // The chosen device matches the committed strategy's placement.
    EXPECT_EQ(dec.chosen, ft.strategy.placement[static_cast<size_t>(dec.op)]);
    bool chosen_listed = false;
    for (const CandidateScore& c : dec.candidates) {
      if (c.device == dec.chosen) {
        chosen_listed = true;
        EXPECT_FALSE(c.memory_rejected) << dec.op_name;
      }
      if (!c.memory_rejected) EXPECT_TRUE(std::isfinite(c.score_s));
      EXPECT_LE(c.est_s, c.eft_s + 1e-12) << dec.op_name;
    }
    EXPECT_TRUE(chosen_listed) << dec.op_name;
  }
}

TEST(Provenance, ExplainRendersChosenRejectedAndRealized) {
  const CalculatorResult& ft = LenetWithProvenance();
  // Empty needle matches every decision — the full report must show the
  // chosen device, the reason code, at least one rejected candidate with its
  // EFT delta, and predicted-vs-realized durations.
  const std::string out = ExplainOps(ft, "");
  EXPECT_NE(out.find("chosen: gpu"), std::string::npos);
  EXPECT_NE(out.find("reason="), std::string::npos);
  EXPECT_NE(out.find("<- chosen"), std::string::npos);
  EXPECT_NE(out.find("eft delta"), std::string::npos);
  EXPECT_NE(out.find("predicted"), std::string::npos);
  EXPECT_NE(out.find("realized"), std::string::npos);
  // A needle that matches nothing says so instead of printing nothing.
  const std::string miss = ExplainOps(ft, "no_such_op_name");
  EXPECT_NE(miss.find("no recorded op matches"), std::string::npos);
}

TEST(Provenance, ExplainNamesTheStartWhenNoRoundCommitted) {
  // No provenance and no committed round: the returned strategy is the
  // start, which DPOS never placed, so asking for record_provenance would
  // not help.
  CalculatorResult ft;
  ft.start_strategy = "pipeline";
  ft.round_history.emplace_back();
  const std::string start = ExplainOps(ft, "");
  EXPECT_NE(start.find("the returned strategy is the pipeline start"),
            std::string::npos)
      << start;
  EXPECT_EQ(start.find("record_provenance"), std::string::npos);
  // A committed round without provenance: recording was off.
  ft.round_history.back().committed = true;
  EXPECT_NE(ExplainOps(ft, "").find("run with record_provenance"),
            std::string::npos);
}

TEST(Provenance, RecordingDoesNotChangeTheStrategy) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster c = Cluster::SingleServer(2);
  CalculatorOptions off;
  const auto plain = RunFastT(spec.build, spec.name, spec.strong_batch,
                              Scaling::kStrong, c, off);
  EXPECT_TRUE(plain.provenance.empty());
  EXPECT_TRUE(plain.split_trials.empty());
  const CalculatorResult& recorded = LenetWithProvenance();
  // Recording is observation only: same search, same strategy, same speed.
  EXPECT_EQ(plain.strategy.placement, recorded.strategy.placement);
  EXPECT_EQ(plain.iteration_s, recorded.iteration_s);
  EXPECT_EQ(plain.rounds, recorded.rounds);
}

TEST(Provenance, JsonExportValidates) {
  const CalculatorResult& ft = LenetWithProvenance();
  const std::string json = ProvenanceToJson(ft.provenance, ft.split_trials);
  std::string error;
  EXPECT_TRUE(JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find("\"decisions\""), std::string::npos);
  EXPECT_NE(json.find("\"split_trials\""), std::string::npos);
}

// ---- calibration ----------------------------------------------------------

TEST(Calibration, JoinComputesResidualsAndPairDiagnostics) {
  Graph g("toy");
  Operation a;
  a.name = "a";
  a.type = OpType::kMatMul;
  a.output_shape = TensorShape{250};
  const OpId ida = g.AddOp(std::move(a));
  Operation b;
  b.name = "b";
  b.type = OpType::kMatMul;
  b.output_shape = TensorShape{250};
  const OpId idb = g.AddOp(std::move(b));
  g.AddEdge(ida, idb, 1000);

  const std::vector<double> predicted = {0.010, 0.020};
  const std::vector<DeviceId> placement = {0, 1};

  // The model the scheduler consulted: a perfect 1 us/KB line through 0.
  CommCostModel comm_before;
  comm_before.AddSample(0, 1, 1000, 0.001);
  comm_before.AddSample(0, 1, 2000, 0.002);

  // Realized run: op a exactly as predicted, op b 25% slower, the transfer
  // twice as slow as the model priced it.
  SimResult realized;
  realized.op_records.assign(2, OpRecord{});
  realized.op_records[0] = {ida, 0, 0.0, 0.010};
  realized.op_records[1] = {idb, 1, 0.020, 0.045};
  TransferRecord t;
  t.src_op = ida;
  t.dst_op = idb;
  t.src = 0;
  t.dst = 1;
  t.bytes = 1000;
  t.start = 0.010;
  t.arrival = 0.012;
  realized.transfers.push_back(t);

  const CalibrationRound cal =
      ComputeCalibration(g, predicted, placement, comm_before, realized);

  ASSERT_EQ(cal.residuals.size(), 2u);
  EXPECT_EQ(cal.residuals[0].name, "a");
  EXPECT_NEAR(cal.residuals[0].rel_err, 0.0, 1e-12);
  EXPECT_EQ(cal.residuals[1].name, "b");
  EXPECT_NEAR(cal.residuals[1].realized_s, 0.025, 1e-12);
  EXPECT_NEAR(cal.residuals[1].rel_err, -0.2, 1e-12);
  EXPECT_EQ(cal.comp.n, 2);
  EXPECT_NEAR(cal.comp.max, 0.2, 1e-12);

  ASSERT_EQ(cal.comm_residuals.size(), 1u);
  EXPECT_NEAR(cal.comm_residuals[0].predicted_s, 0.001, 1e-9);
  EXPECT_NEAR(cal.comm_residuals[0].realized_s, 0.002, 1e-12);
  EXPECT_NEAR(cal.comm_residuals[0].rel_err, -0.5, 1e-6);

  ASSERT_EQ(cal.pairs.size(), 1u);
  EXPECT_EQ(cal.pairs[0].src, 0);
  EXPECT_EQ(cal.pairs[0].dst, 1);
  EXPECT_NEAR(cal.pairs[0].slope_s_per_byte, 1e-6, 1e-12);
  EXPECT_EQ(cal.pairs[0].round_transfers, 1);
  EXPECT_NEAR(cal.pairs[0].mean_rel_err, 0.5, 1e-6);

  // Post-mortem candidates are sorted by absolute error: b (5 ms off) first.
  ASSERT_FALSE(cal.postmortem.top_mispredicted.empty());
  EXPECT_EQ(cal.postmortem.top_mispredicted.front().name, "b");
}

TEST(Calibration, ReportNamesRolledBackRounds) {
  CalibrationRound cal;
  cal.round = 1;
  cal.committed = false;
  cal.oom = false;
  cal.postmortem.rolled_back = true;
  OpResidual r;
  r.name = "conv1";
  r.device = 0;
  r.predicted_s = 0.001;
  r.realized_s = 0.003;
  r.abs_err_s = 0.002;
  r.rel_err = -2.0 / 3.0;
  cal.postmortem.top_mispredicted.push_back(r);
  const std::string report = RenderCalibrationReport({cal});
  EXPECT_NE(report.find("rollback post-mortem, round 1"), std::string::npos);
  EXPECT_NE(report.find("slower than incumbent"), std::string::npos);
  EXPECT_NE(report.find("conv1"), std::string::npos);
}

TEST(Calibration, EndToEndOneRoundPerHistoryEntry) {
  const CalculatorResult& ft = LenetWithProvenance();
  ASSERT_EQ(ft.calibration.size(), ft.round_history.size());
  for (size_t i = 0; i < ft.calibration.size(); ++i) {
    const CalibrationRound& cal = ft.calibration[i];
    const RoundSummary& r = ft.round_history[i];
    EXPECT_EQ(cal.round, r.round);
    EXPECT_EQ(cal.committed, r.committed);
    EXPECT_EQ(cal.oom, r.oom);
    EXPECT_EQ(cal.postmortem.rolled_back, !r.committed);
    // The round summary's digest mirrors the full audit.
    EXPECT_EQ(r.comp_err_p50, cal.comp.p50);
    EXPECT_EQ(r.comp_err_p90, cal.comp.p90);
    EXPECT_EQ(r.comp_err_max, cal.comp.max);
    EXPECT_FALSE(cal.residuals.empty());
  }
  std::string error;
  const std::string json = CalibrationToJson("lenet", ft.calibration);
  EXPECT_TRUE(JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find("\"fastt_calibration\""), std::string::npos);
}

TEST(Calibration, JsonKeepsTheLargestRelativeErrors) {
  // 200 op and 200 comm rows whose |rel_err| cycles through 0.0 .. 0.9 with
  // alternating signs: the report keeps the 64 largest of each table,
  // largest first, ties in table order, and its error stats still count
  // every row.
  CalibrationRound cal;
  cal.round = 1;
  for (int i = 0; i < 200; ++i) {
    const double rel_err = (i % 2 == 0 ? 1.0 : -1.0) * (i % 10) / 10.0;
    OpResidual o;
    o.name = StrFormat("op%d", i);
    o.rel_err = rel_err;
    cal.residuals.push_back(o);
    CommResidual c;
    c.bytes = i;
    c.rel_err = -rel_err;
    cal.comm_residuals.push_back(c);
  }
  cal.comp.n = 200;
  cal.comm.n = 200;
  auto expected = [](auto rows) {
    std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return std::fabs(a.rel_err) > std::fabs(b.rel_err);
    });
    rows.resize(kReportedResiduals);
    return rows;
  };
  const std::vector<OpResidual> ops = expected(cal.residuals);
  const std::vector<CommResidual> comms = expected(cal.comm_residuals);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonParse(CalibrationToJson("synthetic", {cal}), &doc, &error))
      << error;
  const JsonValue& round = doc.Find("rounds")->items.at(0);
  EXPECT_EQ(round.Find("comp_rel_err")->Find("n")->IntOr(-1), 200);
  EXPECT_EQ(round.Find("comm_rel_err")->Find("n")->IntOr(-1), 200);
  const std::vector<JsonValue>& op_rows = round.Find("residuals")->items;
  ASSERT_EQ(op_rows.size(), kReportedResiduals);
  for (size_t i = 0; i < op_rows.size(); ++i) {
    EXPECT_EQ(op_rows[i].Find("op")->StringOr(""), ops[i].name) << i;
    EXPECT_EQ(op_rows[i].Find("rel_err")->NumberOr(0.0), ops[i].rel_err);
  }
  const std::vector<JsonValue>& comm_rows =
      round.Find("comm_residuals")->items;
  ASSERT_EQ(comm_rows.size(), kReportedResiduals);
  for (size_t i = 0; i < comm_rows.size(); ++i) {
    EXPECT_EQ(comm_rows[i].Find("bytes")->IntOr(-1), comms[i].bytes) << i;
    EXPECT_EQ(comm_rows[i].Find("rel_err")->NumberOr(0.0), comms[i].rel_err);
  }
}

}  // namespace
}  // namespace fastt
