#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/data_parallel.h"
#include "core/model_parallel.h"
#include "core/os_dpos.h"
#include "core/strategy_calculator.h"
#include "models/model_zoo.h"
#include "sim/profiler.h"
#include "util/strings.h"

namespace fastt {
namespace {

// Bootstraps cost models by profiling a canonical run (shared by tests).
void Bootstrap(const Graph& g, const std::vector<DeviceId>& placement,
               const Cluster& c, CompCostModel& comp, CommCostModel& comm) {
  for (int i = 0; i < 2; ++i) {
    SimOptions so;
    so.seed = 100 + static_cast<uint64_t>(i);
    const RunProfile p = ExtractProfile(g, Simulate(g, placement, c, so));
    comp.AddProfile(p);
    comm.AddProfile(p);
  }
}

// ---- OS-DPOS ------------------------------------------------------------------

TEST(OsDpos, NeverWorseThanPlainDpos) {
  const ModelSpec& spec = FindModel("vgg19");
  const Cluster c = Cluster::SingleServer(2);
  auto dp = BuildDataParallel(spec.build, spec.name, 16, 2, Scaling::kStrong);
  CompCostModel comp;
  CommCostModel comm;
  Bootstrap(dp.graph, CanonicalDataParallelPlacement(dp), c, comp, comm);

  const DposResult plain = Dpos(dp.graph, c, comp, comm);
  const OsDposResult os = OsDpos(dp.graph, c, comp, comm);
  EXPECT_LE(os.schedule.ft_exit, plain.ft_exit + 1e-12);
}

TEST(OsDpos, SplitsOnlyParallelizableOps) {
  const ModelSpec& spec = FindModel("vgg19");
  const Cluster c = Cluster::SingleServer(4);
  auto dp = BuildDataParallel(spec.build, spec.name, 64, 4, Scaling::kStrong);
  CompCostModel comp;
  CommCostModel comm;
  Bootstrap(dp.graph, CanonicalDataParallelPlacement(dp), c, comp, comm);
  const OsDposResult os = OsDpos(dp.graph, c, comp, comm);
  for (const SplitDecision& s : os.splits) {
    const OpId original = dp.graph.FindOp(s.op_name);
    ASSERT_NE(original, kInvalidOp) << s.op_name;
    const auto dims = ParallelizableDims(dp.graph.op(original).type);
    EXPECT_NE(std::find(dims.begin(), dims.end(), s.dim), dims.end());
    EXPECT_GE(s.num_splits, 2);
    // The strategy's graph has the original tombstoned.
    EXPECT_TRUE(os.graph.op(original).dead);
  }
  EXPECT_NO_THROW(os.graph.Validate());
}

TEST(OsDpos, SingleDeviceMakesNoSplits) {
  const ModelSpec& spec = FindModel("lenet");
  const Graph g = BuildSingle(spec, 64);
  const Cluster c = Cluster::SingleServer(1);
  CompCostModel comp;
  CommCostModel comm;
  Bootstrap(g, std::vector<DeviceId>(g.num_slots(), 0), c, comp, comm);
  const OsDposResult os = OsDpos(g, c, comp, comm);
  EXPECT_TRUE(os.splits.empty());
}

TEST(OsDpos, ProbeBudgetRespected) {
  const ModelSpec& spec = FindModel("alexnet");
  const Cluster c = Cluster::SingleServer(2);
  auto dp = BuildDataParallel(spec.build, spec.name, 32, 2, Scaling::kStrong);
  CompCostModel comp;
  CommCostModel comm;
  Bootstrap(dp.graph, CanonicalDataParallelPlacement(dp), c, comp, comm);
  OsDposOptions options;
  options.max_probed_ops = 3;
  const OsDposResult os = OsDpos(dp.graph, c, comp, comm, options);
  // <= probed ops x dims x split counts.
  EXPECT_LE(os.probes, 3 * 2 * 2);
}

// ---- data parallel --------------------------------------------------------------

TEST(DataParallel, StrongScalingDividesBatch) {
  const ModelSpec& spec = FindModel("lenet");
  auto dp = BuildDataParallel(spec.build, spec.name, 64, 4, Scaling::kStrong);
  EXPECT_EQ(dp.replicas, 4);
  EXPECT_EQ(dp.global_batch, 64);
  // Each replica processes 16 samples: check an input op's batch dim.
  const OpId in = dp.graph.FindOp("rep0/images");
  ASSERT_NE(in, kInvalidOp);
  EXPECT_EQ(dp.graph.op(in).output_shape.dim(0), 16);
}

TEST(DataParallel, WeakScalingGrowsGlobalBatch) {
  const ModelSpec& spec = FindModel("lenet");
  auto dp = BuildDataParallel(spec.build, spec.name, 64, 4, Scaling::kWeak);
  EXPECT_EQ(dp.global_batch, 256);
  const OpId in = dp.graph.FindOp("rep0/images");
  EXPECT_EQ(dp.graph.op(in).output_shape.dim(0), 64);
}

TEST(DataParallel, UnevenStrongSplitKeepsAllSamples) {
  const ModelSpec& spec = FindModel("lenet");
  auto dp = BuildDataParallel(spec.build, spec.name, 10, 3, Scaling::kStrong);
  EXPECT_EQ(dp.global_batch, 10);
}

TEST(DataParallel, VariablesAreShared) {
  const ModelSpec& spec = FindModel("lenet");
  auto dp = BuildDataParallel(spec.build, spec.name, 32, 4, Scaling::kStrong);
  // Exactly one live variable per logical parameter.
  std::set<std::string> keys;
  int live_vars = 0;
  for (OpId id : dp.graph.LiveOps()) {
    if (dp.graph.op(id).type != OpType::kVariable) continue;
    ++live_vars;
    EXPECT_TRUE(keys.insert(dp.graph.op(id).CostKey()).second)
        << "duplicate variable " << dp.graph.op(id).name;
  }
  const Graph single = BuildSingle(spec, 32);
  int single_vars = 0;
  for (OpId id : single.LiveOps())
    if (single.op(id).type == OpType::kVariable) ++single_vars;
  EXPECT_EQ(live_vars, single_vars);
}

TEST(DataParallel, OneApplyAndOneAggPerParameter) {
  const ModelSpec& spec = FindModel("lenet");
  auto dp = BuildDataParallel(spec.build, spec.name, 32, 4, Scaling::kStrong);
  int applies = 0, aggs = 0, vars = 0;
  for (OpId id : dp.graph.LiveOps()) {
    const auto& op = dp.graph.op(id);
    if (op.type == OpType::kApplyGradient) ++applies;
    if (op.type == OpType::kGradAggregate) ++aggs;
    if (op.type == OpType::kVariable) ++vars;
  }
  EXPECT_EQ(applies, vars);
  EXPECT_EQ(aggs, vars);
  // Every aggregation sums one wgrad per replica.
  for (OpId id : dp.graph.LiveOps()) {
    if (dp.graph.op(id).type != OpType::kGradAggregate) continue;
    EXPECT_EQ(dp.graph.Preds(id).size(), 4u);
    EXPECT_EQ(dp.graph.Succs(id).size(), 1u);
  }
}

TEST(DataParallel, CanonicalPlacementPutsReplicaOnOwnDevice) {
  const ModelSpec& spec = FindModel("lenet");
  auto dp = BuildDataParallel(spec.build, spec.name, 32, 2, Scaling::kStrong);
  const auto placement = CanonicalDataParallelPlacement(dp);
  EXPECT_EQ(placement[static_cast<size_t>(dp.graph.FindOp("rep0/conv1"))], 0);
  EXPECT_EQ(placement[static_cast<size_t>(dp.graph.FindOp("rep1/conv1"))], 1);
  // Shared variables and aggregation live with replica 0.
  EXPECT_EQ(
      placement[static_cast<size_t>(dp.graph.FindOp("rep0/conv1/weights"))],
      0);
}

TEST(DataParallel, SimulatesWithoutDeadlock) {
  const ModelSpec& spec = FindModel("lenet");
  auto dp = BuildDataParallel(spec.build, spec.name, 32, 2, Scaling::kStrong);
  const SimResult r = Simulate(dp.graph, CanonicalDataParallelPlacement(dp),
                               Cluster::SingleServer(2));
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_FALSE(r.transfers.empty());  // weight broadcast + gradient return
}

TEST(DataParallel, SingleReplicaHasNoAggregation) {
  const ModelSpec& spec = FindModel("lenet");
  auto dp = BuildDataParallel(spec.build, spec.name, 32, 1, Scaling::kStrong);
  for (OpId id : dp.graph.LiveOps())
    EXPECT_NE(dp.graph.op(id).type, OpType::kGradAggregate);
}

// ---- model parallel ---------------------------------------------------------------

TEST(ModelParallel, FitDetection) {
  const Cluster c = Cluster::SingleServer(2);
  const Graph small = BuildSingle(FindModel("lenet"), 64);
  EXPECT_TRUE(FitsOnOneDevice(small, c));
  const Graph large = BuildSingle(FindModel("bert_large"), 48);
  EXPECT_FALSE(FitsOnOneDevice(large, c));
}

TEST(ModelParallel, CoversAllOpsAndBalances) {
  const Graph g = BuildSingle(FindModel("bert_large"), 32);
  const Cluster c = Cluster::SingleServer(2);
  const auto placement = GreedyModelParallelPlacement(g, c);
  int64_t need[2] = {0, 0};
  for (OpId id : g.LiveOps()) {
    const DeviceId d = placement[static_cast<size_t>(id)];
    ASSERT_TRUE(d == 0 || d == 1);
    need[d] += MemNeed(g, id);
  }
  EXPECT_GT(need[0], 0);
  EXPECT_GT(need[1], 0);
  // Balanced within 2x either way.
  EXPECT_LT(static_cast<double>(std::max(need[0], need[1])) /
                static_cast<double>(std::min(need[0], need[1])),
            2.0);
}

TEST(ModelParallel, BackwardFollowsForwardDevice) {
  const Graph g = BuildSingle(FindModel("vgg19"), 16);
  const Cluster c = Cluster::SingleServer(2);
  const auto placement = GreedyModelParallelPlacement(g, c);
  // conv ops and their weight gradients must share a device.
  for (const char* name : {"conv1_1", "conv5_4", "fc6"}) {
    const OpId fwd = g.FindOp(name);
    const OpId dw = g.FindOp(std::string(name) + "/wgrad");
    ASSERT_NE(fwd, kInvalidOp);
    ASSERT_NE(dw, kInvalidOp);
    EXPECT_EQ(placement[static_cast<size_t>(fwd)],
              placement[static_cast<size_t>(dw)])
        << name;
  }
}

TEST(ModelParallel, MakesLargeModelFeasible) {
  const Graph g = BuildSingle(FindModel("bert_large"), 40);
  const Cluster c = Cluster::SingleServer(2);
  const SimResult r = Simulate(g, GreedyModelParallelPlacement(g, c), c);
  EXPECT_FALSE(r.oom);  // Table 3: FastT trains batch 40 on 2 GPUs
}

// ---- strategy calculator -------------------------------------------------------

TEST(StrategyCalculator, FastTNotWorseThanDataParallel) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster c = Cluster::SingleServer(2);
  CalculatorOptions options;
  const auto dp = RunDataParallelBaseline(spec.build, spec.name, 256,
                                          Scaling::kStrong, c, options);
  const auto ft =
      RunFastT(spec.build, spec.name, 256, Scaling::kStrong, c, options);
  EXPECT_GE(SamplesPerSecond(ft), 0.95 * SamplesPerSecond(dp));
  EXPECT_FALSE(ft.final_sim.oom);
  EXPECT_EQ(ft.global_batch, 256);
  EXPECT_GT(ft.rounds, 0);
  EXPECT_GT(ft.strategy_time_s, 0.0);
}

TEST(StrategyCalculator, FindsVggPlacementWin) {
  // The headline reproduction: FastT beats data parallelism on VGG at 4
  // GPUs by gathering the classifier replicas (paper Table 1 / §6.5).
  const ModelSpec& spec = FindModel("vgg19");
  const Cluster c = Cluster::SingleServer(4);
  CalculatorOptions options;
  const auto dp = RunDataParallelBaseline(spec.build, spec.name, 64,
                                          Scaling::kStrong, c, options);
  const auto ft =
      RunFastT(spec.build, spec.name, 64, Scaling::kStrong, c, options);
  EXPECT_GT(SamplesPerSecond(ft), 1.15 * SamplesPerSecond(dp));
}

TEST(StrategyCalculator, OomCandidatesNeverKept) {
  // BERT-large batch 40 on 2 GPUs: DP is infeasible; FastT must deliver a
  // feasible strategy (Table 3).
  const ModelSpec& spec = FindModel("bert_large");
  const Cluster c = Cluster::SingleServer(2);
  CalculatorOptions options;
  options.max_rounds = 4;
  const auto ft =
      RunFastT(spec.build, spec.name, 40, Scaling::kStrong, c, options);
  EXPECT_EQ(ft.start_strategy, "model_parallel");
  EXPECT_FALSE(ft.final_sim.oom);
}

TEST(StrategyCalculator, SingleGpuDegeneratesGracefully) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster c = Cluster::SingleServer(1);
  CalculatorOptions options;
  const auto ft =
      RunFastT(spec.build, spec.name, 64, Scaling::kStrong, c, options);
  EXPECT_EQ(ft.start_strategy, "data_parallel");
  for (OpId id : ft.graph.LiveOps())
    EXPECT_EQ(ft.strategy.placement[static_cast<size_t>(id)], 0);
}

TEST(StrategyCalculator, WeakScalingReportsGrownBatch) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster c = Cluster::SingleServer(4);
  CalculatorOptions options;
  const auto dp = RunDataParallelBaseline(spec.build, spec.name, 64,
                                          Scaling::kWeak, c, options);
  EXPECT_EQ(dp.global_batch, 256);
  const auto ft =
      RunFastT(spec.build, spec.name, 64, Scaling::kWeak, c, options);
  EXPECT_EQ(ft.global_batch, 256);
}

TEST(StrategyCalculator, OrderEnforcementCanBeDisabled) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster c = Cluster::SingleServer(2);
  CalculatorOptions options;
  options.enable_order_enforcement = false;
  options.enable_split = false;
  EXPECT_NO_THROW(
      RunFastT(spec.build, spec.name, 64, Scaling::kStrong, c, options));
}

TEST(StrategyCalculator, PrioritiesCoverAllLiveOps) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster c = Cluster::SingleServer(2);
  const auto ft = RunFastT(spec.build, spec.name, 64, Scaling::kStrong, c,
                           CalculatorOptions{});
  const auto priorities = PrioritiesFromOrder(
      ft.strategy.execution_order, ft.graph.num_slots());
  std::set<int64_t> seen;
  for (OpId id : ft.graph.LiveOps())
    seen.insert(priorities[static_cast<size_t>(id)]);
  EXPECT_EQ(seen.size(), static_cast<size_t>(ft.graph.num_live_ops()));
}

// A chain model whose parameters exceed one device's usable memory (~9 GB on
// a 16 GB V100) but fit split across two: four 4 GB weight variables feeding
// matmuls. Used to force a candidate OOM deterministically.
void BuildHeavyChain(Graph& g, const std::string& prefix, int64_t batch) {
  const int64_t gb = int64_t{1} << 30;
  OpId prev = kInvalidOp;
  for (int i = 0; i < 4; ++i) {
    Operation w;
    w.name = prefix + StrFormat("w%d", i);
    w.type = OpType::kVariable;
    w.param_bytes = 4 * gb;
    w.output_shape = TensorShape{1024};
    const OpId wid = g.AddOp(std::move(w));
    Operation m;
    m.name = prefix + StrFormat("mm%d", i);
    m.type = OpType::kMatMul;
    m.flops = 1e9;
    m.batch = batch;
    m.output_shape = TensorShape{batch * 256};
    const OpId mid = g.AddOp(std::move(m));
    g.AddEdge(wid, mid);
    if (prev != kInvalidOp) g.AddEdge(prev, mid, batch * 1024);
    prev = mid;
  }
}

TEST(StrategyCalculator, OomCandidateRollsBackAndRecordsReason) {
  const Cluster c = Cluster::SingleServer(2);
  CalculatorOptions options;
  // Let the scheduler believe every device has unbounded memory: DPOS then
  // piles the whole 24 GB chain onto one 16 GB GPU, and the profiled run of
  // that candidate OOMs — which the workflow must always roll back.
  options.os_dpos.dpos.memory_headroom = 1000.0;
  options.enable_split = false;
  options.noise_cv = 0.0;
  options.max_rounds = 2;
  options.profile_iterations = 2;
  options.measure_iterations = 2;
  const auto ft = RunFastT(BuildHeavyChain, "heavy_chain", 32,
                           Scaling::kStrong, c, options);
  EXPECT_EQ(ft.start_strategy, "model_parallel");
  EXPECT_GE(ft.rollbacks, 1);
  ASSERT_EQ(ft.calibration.size(), ft.round_history.size());
  // With memory feasibility disabled the search eventually produces a
  // packing that runs out of memory; the workflow must roll it back and the
  // round history + calibration audit must say why.
  size_t oom_round = ft.round_history.size();
  for (size_t i = 0; i < ft.round_history.size(); ++i)
    if (ft.round_history[i].oom) { oom_round = i; break; }
  ASSERT_LT(oom_round, ft.round_history.size()) << "no candidate ever OOMed";
  EXPECT_FALSE(ft.round_history[oom_round].committed);
  EXPECT_TRUE(ft.calibration[oom_round].postmortem.rolled_back);
  EXPECT_TRUE(ft.calibration[oom_round].postmortem.oom);
  // The final strategy is a feasible incumbent, not the OOM candidate.
  EXPECT_FALSE(ft.final_sim.oom);
  const std::string events = ft.events.ToJsonl();
  EXPECT_NE(events.find("rollback_oom"), std::string::npos);
  EXPECT_NE(events.find("rollback_postmortem"), std::string::npos);
  EXPECT_NE(events.find("\"cause\":\"oom\""), std::string::npos);
}

// A three-layer chain with 3, 5 and 5 GB of resident weights: 13 GB does
// not fit one GPU (~9.1 GB usable), so FastT starts from the greedy layer
// cut, and that cut is itself out of memory: it balances toward 6.5 GB,
// puts layer 0 alone on gpu0 and both 5 GB layers on gpu1. Every feasible
// placement pays for it in transfers the cut avoids: a 512 MB activation
// across a cut after layer 1, or a 128 MB weight read from the other GPU.
void BuildLopsidedChain(Graph& g, const std::string& prefix, int64_t batch) {
  const int64_t mb = int64_t{1} << 20;
  const int64_t weight_mb[3] = {3 << 10, 5 << 10, 5 << 10};
  const int64_t out_mb[3] = {1, 512, 1};
  OpId prev = kInvalidOp;
  for (int i = 0; i < 3; ++i) {
    Operation w;
    w.name = prefix + StrFormat("w%d", i);
    w.type = OpType::kVariable;
    w.param_bytes = weight_mb[i] * mb;
    w.output_shape = TensorShape{128 * mb / 4};
    const OpId wid = g.AddOp(std::move(w));
    Operation m;
    m.name = prefix + StrFormat("mm%d", i);
    m.type = OpType::kMatMul;
    m.flops = 1e9;
    m.batch = batch;
    m.output_shape = TensorShape{out_mb[i] * mb / 4};
    const OpId mid = g.AddOp(std::move(m));
    g.AddEdge(wid, mid);
    if (prev != kInvalidOp) g.AddEdge(prev, mid);
    prev = mid;
  }
}

TEST(StrategyCalculator, FeasibleCandidateReplacesOomStartEvenIfSlower) {
  const Cluster c = Cluster::SingleServer(2);
  CalculatorOptions options;
  options.enable_split = false;
  options.noise_cv = 0.0;
  options.max_rounds = 2;
  const auto ft = RunFastT(BuildLopsidedChain, "lopsided_chain", 32,
                           Scaling::kStrong, c, options);
  EXPECT_EQ(ft.start_strategy, "model_parallel");
  const std::string events = ft.events.ToJsonl();
  const size_t boot = events.find("\"event\":\"bootstrap\"");
  ASSERT_NE(boot, std::string::npos);
  EXPECT_NE(events.substr(boot, events.find('\n', boot) - boot)
                .find("\"model_parallel_oom\":true"),
            std::string::npos)
      << "the start must run out of memory";
  ASSERT_EQ(ft.round_history.size(), 2u);
  // Round 1 is slower than the incumbent's measured time and commits anyway:
  // an incumbent that runs out of memory loses to any feasible candidate.
  const RoundSummary& first = ft.round_history[0];
  EXPECT_FALSE(first.oom);
  EXPECT_GT(first.measured_s, first.best_before_s);
  EXPECT_TRUE(first.committed);
  // From then on the incumbent fits, and the usual rule applies.
  const RoundSummary& second = ft.round_history[1];
  EXPECT_EQ(second.best_before_s, first.measured_s);
  EXPECT_EQ(second.committed,
            !second.oom && second.measured_s <= second.best_before_s);
  EXPECT_FALSE(ft.final_sim.oom);
}

TEST(StrategyCalculator, SlowerCandidateRollbackRecordsReason) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster c = Cluster::SingleServer(2);
  // Profiling noise makes some rounds measure slower than the incumbent;
  // scan a few seeds so the test does not depend on one noise draw.
  bool found = false;
  for (uint64_t seed = 7; seed < 17 && !found; ++seed) {
    CalculatorOptions options;
    options.seed = seed;
    options.max_rounds = 4;
    const auto ft = RunFastT(spec.build, spec.name, spec.strong_batch,
                             Scaling::kStrong, c, options);
    ASSERT_EQ(ft.calibration.size(), ft.round_history.size());
    for (size_t i = 0; i < ft.round_history.size(); ++i) {
      const RoundSummary& r = ft.round_history[i];
      if (r.committed || r.oom) continue;
      found = true;
      // Rolled back because the candidate measured slower, and the history
      // says so.
      EXPECT_GT(r.measured_s, r.best_before_s);
      const CalibrationRound& cal = ft.calibration[i];
      EXPECT_TRUE(cal.postmortem.rolled_back);
      EXPECT_FALSE(cal.postmortem.oom);
      EXPECT_FALSE(cal.postmortem.top_mispredicted.empty());
      const std::string events = ft.events.ToJsonl();
      EXPECT_NE(events.find("rollback_slower"), std::string::npos);
      EXPECT_NE(events.find("\"cause\":\"slower\""), std::string::npos);
      break;
    }
  }
  EXPECT_TRUE(found) << "no slower-candidate rollback in 10 seeds";
}

}  // namespace
}  // namespace fastt
