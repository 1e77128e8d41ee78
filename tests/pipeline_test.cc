#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "core/pipeline.h"
#include "core/strategy_calculator.h"
#include "graph/memory.h"
#include "models/model_zoo.h"
#include "sim/exec_sim.h"

namespace fastt {
namespace {

TEST(Pipeline, BuildsValidGraph) {
  const ModelSpec& spec = FindModel("vgg19");
  const Cluster cluster = Cluster::SingleServer(2);
  const PipelineGraph p =
      BuildPipeline(spec.build, spec.name, 32, 4, cluster);
  EXPECT_EQ(p.micro_batches, 4);
  EXPECT_EQ(p.global_batch, 32);
  EXPECT_NO_THROW(p.graph.Validate());
}

TEST(Pipeline, MicroBatchesShareStages) {
  // Same logical op of different micro-batches lands on the same device.
  const ModelSpec& spec = FindModel("vgg19");
  const Cluster cluster = Cluster::SingleServer(2);
  const PipelineGraph p =
      BuildPipeline(spec.build, spec.name, 32, 4, cluster);
  for (const char* name : {"conv1_1", "conv5_4", "fc6"}) {
    std::set<DeviceId> devices;
    for (int m = 0; m < 4; ++m) {
      const OpId id =
          p.graph.FindOp("rep" + std::to_string(m) + "/" + name);
      ASSERT_NE(id, kInvalidOp);
      devices.insert(p.placement[static_cast<size_t>(id)]);
    }
    EXPECT_EQ(devices.size(), 1u) << name;
  }
}

TEST(Pipeline, UsesMultipleStages) {
  const ModelSpec& spec = FindModel("vgg19");
  const Cluster cluster = Cluster::SingleServer(2);
  const PipelineGraph p =
      BuildPipeline(spec.build, spec.name, 32, 4, cluster);
  std::set<DeviceId> used;
  for (OpId id : p.graph.LiveOps())
    used.insert(p.placement[static_cast<size_t>(id)]);
  EXPECT_EQ(used.size(), 2u);
}

TEST(Pipeline, MicroBatchingBeatsNaiveModelParallelism) {
  // The GPipe effect: M micro-batches overlap stages and beat M = 1.
  const ModelSpec& spec = FindModel("bert_large");
  const Cluster cluster = Cluster::SingleServer(2);
  const PipelineGraph naive =
      BuildPipeline(spec.build, spec.name, 32, 1, cluster);
  const PipelineGraph piped =
      BuildPipeline(spec.build, spec.name, 32, 4, cluster);
  SimOptions so_naive;
  so_naive.dispatch = DispatchMode::kPriority;
  so_naive.priorities = naive.priorities;
  SimOptions so_piped;
  so_piped.dispatch = DispatchMode::kPriority;
  so_piped.priorities = piped.priorities;
  const double t_naive =
      Simulate(naive.graph, naive.placement, cluster, so_naive).makespan;
  const double t_piped =
      Simulate(piped.graph, piped.placement, cluster, so_piped).makespan;
  EXPECT_LT(t_piped, t_naive * 0.9);
}

TEST(Pipeline, PreservesSynchronousSemantics) {
  // One optimizer update per parameter, fed by all micro-batch gradients.
  const ModelSpec& spec = FindModel("lenet");
  const Cluster cluster = Cluster::SingleServer(2);
  const PipelineGraph p =
      BuildPipeline(spec.build, spec.name, 32, 4, cluster);
  int applies = 0;
  for (OpId id : p.graph.LiveOps()) {
    if (p.graph.op(id).type != OpType::kGradAggregate) continue;
    EXPECT_EQ(p.graph.Preds(id).size(), 4u);  // one gradient per micro-batch
  }
  for (OpId id : p.graph.LiveOps())
    if (p.graph.op(id).type == OpType::kApplyGradient) ++applies;
  int vars = 0;
  for (OpId id : p.graph.LiveOps())
    if (p.graph.op(id).type == OpType::kVariable) ++vars;
  EXPECT_EQ(applies, vars);
}

TEST(Pipeline, OrderEnforcementIsWhatMakesItPipeline) {
  // The same graph+placement under lockstep (FIFO) dispatch serializes;
  // depth-first priorities create the overlap — Fig. 2's thesis applied to
  // the paper's future-work extension.
  const ModelSpec& spec = FindModel("bert_large");
  const Cluster cluster = Cluster::SingleServer(2);
  const PipelineGraph p =
      BuildPipeline(spec.build, spec.name, 32, 4, cluster);
  const double fifo = Simulate(p.graph, p.placement, cluster).makespan;
  SimOptions so;
  so.dispatch = DispatchMode::kPriority;
  so.priorities = p.priorities;
  const double enforced =
      Simulate(p.graph, p.placement, cluster, so).makespan;
  EXPECT_LT(enforced, fifo * 0.85);
}

TEST(Pipeline, RejectsBadArguments) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster cluster = Cluster::SingleServer(2);
  EXPECT_THROW(BuildPipeline(spec.build, spec.name, 2, 4, cluster),
               std::logic_error);
}

// ---- The stage cut ----------------------------------------------------------

// A zoo model's DP graph at one replica per GPU, the bootstrap profile that
// prices it, and PipelinePlacement's cut over every device: RunFastT's
// "pipeline" start.
struct ZooCut {
  DataParallelGraph dp;
  CompCostModel comp;
  std::vector<DeviceId> placement;
};

ZooCut CutZooModel(const std::string& name, const Cluster& cluster) {
  const ModelSpec& spec = FindModel(name);
  ZooCut cut;
  cut.dp = BuildDataParallel(spec.build, spec.name, spec.strong_batch,
                             cluster.num_devices(), Scaling::kStrong);
  CommCostModel comm;
  BootstrapProfile(cut.dp.graph, CanonicalDataParallelPlacement(cut.dp),
                   cluster, CalculatorOptions{}, cut.comp, comm);
  cut.placement =
      PipelinePlacement(SegmentPipeline(cut.dp.graph, cluster, cut.comp),
                        cluster, cluster.num_devices(), 0.92);
  return cut;
}

bool IsSourceOp(const Operation& op) {
  return op.type == OpType::kVariable || op.type == OpType::kInput;
}

class StageCut : public ::testing::TestWithParam<std::string> {};

TEST_P(StageCut, MicroBatchCopiesShareADevice) {
  const Cluster cluster = Cluster::SingleServer(8);
  const ZooCut cut = CutZooModel(GetParam(), cluster);
  // "rep<m>/<op>" is micro-batch m's copy of <op>.
  std::map<std::string, DeviceId> device_of;
  for (OpId id : cut.dp.graph.LiveOps()) {
    const std::string& name = cut.dp.graph.op(id).name;
    if (name.rfind("rep", 0) != 0) continue;
    const std::string op = name.substr(name.find('/') + 1);
    const DeviceId d = cut.placement[static_cast<size_t>(id)];
    const auto [it, inserted] = device_of.try_emplace(op, d);
    EXPECT_EQ(it->second, d) << name;
  }
}

TEST_P(StageCut, StagesAreContiguousInForwardOrder) {
  // Stage i runs on device i, so micro-batch 0's forward ops, in the
  // topological order the cut walks, never go back to a lower device.
  const Cluster cluster = Cluster::SingleServer(8);
  const ZooCut cut = CutZooModel(GetParam(), cluster);
  const Graph& g = cut.dp.graph;
  DeviceId last = 0;
  std::set<DeviceId> used;
  for (OpId id : MicroBatchMajorOrder(g)) {
    const Operation& op = g.op(id);
    if (op.is_backward || IsSourceOp(op) || op.name.rfind("rep0/", 0) != 0)
      continue;
    const DeviceId d = cut.placement[static_cast<size_t>(id)];
    EXPECT_GE(d, last) << op.name;
    last = std::max(last, d);
    used.insert(d);
  }
  EXPECT_GT(used.size(), 1u);
}

TEST_P(StageCut, EveryStageFitsTheMemoryBudget) {
  const Cluster cluster = Cluster::SingleServer(8);
  const ZooCut cut = CutZooModel(GetParam(), cluster);
  std::vector<int64_t> need(8, 0);
  for (OpId id : cut.dp.graph.LiveOps())
    need[static_cast<size_t>(cut.placement[static_cast<size_t>(id)])] +=
        MemNeed(cut.dp.graph, id);
  for (DeviceId d = 0; d < 8; ++d)
    EXPECT_LE(need[static_cast<size_t>(d)],
              0.92 * static_cast<double>(cluster.device(d).usable_bytes()))
        << "device " << d;
}

TEST_P(StageCut, CopiedCutKeepsEveryOpOnItsSegmentsDevice) {
  // The M = |D| cut copied onto the DP graph at 2|D| micro-batches: every
  // micro-batch's copy of an op, and every shared op, runs on the device
  // the cut chose for the op in the M = |D| graph.
  const Cluster cluster = Cluster::SingleServer(8);
  const ZooCut cut = CutZooModel(GetParam(), cluster);
  const ModelSpec& spec = FindModel(GetParam());
  const DataParallelGraph doubled = BuildDataParallel(
      spec.build, spec.name, spec.strong_batch, 16, Scaling::kStrong);
  const std::vector<DeviceId> copied = CopyStageMap(
      SegmentPipeline(cut.dp.graph, cluster, cut.comp), cut.placement,
      SegmentPipeline(doubled.graph, cluster, cut.comp));
  // "rep<m>/<op>" is micro-batch m's copy of <op>; the aggregation ops are
  // shared and keep their names.
  std::set<DeviceId> used;
  for (OpId id : doubled.graph.LiveOps()) {
    const std::string& name = doubled.graph.op(id).name;
    const std::string zero = name.rfind("rep", 0) == 0
                                 ? "rep0" + name.substr(name.find('/'))
                                 : name;
    const OpId base = cut.dp.graph.FindOp(zero);
    ASSERT_NE(base, kInvalidOp) << name;
    EXPECT_EQ(copied[static_cast<size_t>(id)],
              cut.placement[static_cast<size_t>(base)])
        << name;
    used.insert(copied[static_cast<size_t>(id)]);
  }
  EXPECT_GT(used.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo8Gpus, StageCut,
    ::testing::Values("gnmt", "rnnlm", "transformer", "bert_large",
                      "inception_v3"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(StageCut, BalancesProfiledTimeAtGnmt8) {
  // A cut balanced by memory puts 3.2x the mean on gnmt/8's busiest stage.
  const Cluster cluster = Cluster::SingleServer(8);
  const ZooCut cut = CutZooModel("gnmt", cluster);
  std::vector<double> busy(8, 0.0);
  for (OpId id : cut.dp.graph.LiveOps())
    busy[static_cast<size_t>(cut.placement[static_cast<size_t>(id)])] +=
        cut.comp.MaxTimeOverDevices(cut.dp.graph.op(id), 8);
  double total = 0.0;
  for (double b : busy) total += b;
  EXPECT_LE(*std::max_element(busy.begin(), busy.end()), 1.2 * total / 8);
}

// A chain of forward ops priced by hand: op i costs times[i] seconds on
// device 0 and holds params[i] bytes of weights.
struct Chain {
  Graph graph{"chain"};
  CompCostModel comp;
  std::vector<OpId> ops;
};

Chain BuildChain(const std::vector<double>& times,
                 const std::vector<int64_t>& params) {
  Chain chain;
  OpId prev = kInvalidOp;
  for (size_t i = 0; i < times.size(); ++i) {
    Operation op;
    op.name = "op" + std::to_string(i);
    op.type = OpType::kMatMul;
    op.output_shape = TensorShape{256};
    op.param_bytes = params[i];
    const OpId id = chain.graph.AddOp(std::move(op));
    if (prev != kInvalidOp) chain.graph.AddEdge(prev, id);
    chain.comp.AddSample(chain.graph.op(id).CostKey(), 0, times[i]);
    chain.ops.push_back(id);
    prev = id;
  }
  return chain;
}

std::vector<DeviceId> DevicesOf(const Chain& chain,
                                const std::vector<DeviceId>& placement) {
  std::vector<DeviceId> out;
  for (OpId id : chain.ops) out.push_back(placement[static_cast<size_t>(id)]);
  return out;
}

TEST(StageCut, OneSegmentHeavierThanTheRestGetsItsOwnStage) {
  // The heavy op outweighs every other stage's total: the cut keeps the
  // light ops together around it instead of spreading them one per device.
  const Chain chain = BuildChain({1e-3, 1e-3, 100e-3, 1e-3, 1e-3},
                                 std::vector<int64_t>(5, 0));
  const Cluster cluster = Cluster::SingleServer(8);
  const std::vector<DeviceId> placement = PipelinePlacement(
      SegmentPipeline(chain.graph, cluster, chain.comp), cluster, 8, 0.92);
  EXPECT_EQ(DevicesOf(chain, placement),
            (std::vector<DeviceId>{0, 0, 1, 2, 2}));
}

TEST(StageCut, MemoryBudgetOverridesTimeBalance) {
  // By time alone the two light ops share a stage ahead of the heavy one;
  // together they overfill a device, so the second joins the heavy op.
  const Cluster cluster = Cluster::SingleServer(2);
  const int64_t half = cluster.device(0).usable_bytes() / 2;
  const Chain chain = BuildChain({1e-3, 1e-3, 10e-3}, {half, half, 0});
  const std::vector<DeviceId> placement = PipelinePlacement(
      SegmentPipeline(chain.graph, cluster, chain.comp), cluster, 2, 0.92);
  EXPECT_EQ(DevicesOf(chain, placement), (std::vector<DeviceId>{0, 1, 1}));
}

TEST(StageCut, UnmeetableBudgetFallsBackToTime) {
  // Three ops of 0.6 x usable each cannot fit two devices at all; the cut
  // then balances time alone.
  const Cluster cluster = Cluster::SingleServer(2);
  const int64_t big = cluster.device(0).usable_bytes() * 6 / 10;
  const Chain chain = BuildChain({10e-3, 1e-3, 1e-3}, {big, big, big});
  const std::vector<DeviceId> placement = PipelinePlacement(
      SegmentPipeline(chain.graph, cluster, chain.comp), cluster, 2, 0.92);
  EXPECT_EQ(DevicesOf(chain, placement), (std::vector<DeviceId>{0, 1, 1}));
}

// One micro-batch of a two-layer model whose second layer reads the shared
// weight `v`; a_grad reads `v` before its forward activation `a`.
void BuildSharedWeightModel(Graph& g, const std::string& prefix,
                            int64_t batch) {
  auto add = [&](const std::string& name, OpType type, bool backward) {
    Operation op;
    op.name = prefix.empty() ? name : prefix + "/" + name;
    op.cost_key = name;
    op.type = type;
    op.output_shape = TensorShape{batch * 64};
    op.is_backward = backward;
    return g.AddOp(std::move(op));
  };
  const OpId in = add("in", OpType::kInput, false);
  const OpId v = add("v", OpType::kVariable, false);
  const OpId a = add("a", OpType::kMatMul, false);
  const OpId b = add("b", OpType::kMatMul, false);
  const OpId b_grad = add("b_grad", OpType::kMatMul, true);
  const OpId a_grad = add("a_grad", OpType::kMatMul, true);
  g.AddEdge(in, a);
  g.AddEdge(a, b);
  g.AddEdge(v, b);
  g.AddEdge(b, b_grad);
  g.AddEdge(b_grad, a_grad);
  g.AddEdge(v, a_grad);
  g.AddEdge(a, a_grad);
}

TEST(StageCut, BackwardCopiesFollowMicroBatchZero) {
  // Merging the micro-batches' variables moves every micro-batch's edge
  // from `v` but the first to the end of its consumer's inputs, so a_grad's
  // first forward input is `v` (b's stage) in micro-batch 0 and `a` (a's
  // stage) in micro-batch 1. Both copies still go with micro-batch 0's.
  const Cluster cluster = Cluster::SingleServer(2);
  const DataParallelGraph dp = BuildDataParallel(
      BuildSharedWeightModel, "shared_weight", 4, 2, Scaling::kStrong);
  CompCostModel comp;
  comp.AddSample("a", 0, 10e-3);
  comp.AddSample("b", 0, 10e-3);
  const std::vector<DeviceId> placement = PipelinePlacement(
      SegmentPipeline(dp.graph, cluster, comp), cluster, 2, 0.92);
  auto device = [&](const std::string& name) {
    return placement[static_cast<size_t>(dp.graph.FindOp(name))];
  };
  EXPECT_EQ(device("rep0/a"), 0);
  EXPECT_EQ(device("rep0/b"), 1);
  EXPECT_EQ(device("rep0/a_grad"), 1);
  EXPECT_EQ(device("rep1/a_grad"), 1);
}

TEST(StageCut, UsesOnlyTheGivenDevices) {
  // The per-server starts cut over a prefix of the cluster's devices.
  const Cluster cluster = Cluster::MultiServer(2, 4);
  const ZooCut whole = CutZooModel("gnmt", cluster);
  const std::vector<DeviceId> first_server = PipelinePlacement(
      SegmentPipeline(whole.dp.graph, cluster, whole.comp), cluster, 4, 0.92);
  std::set<DeviceId> used;
  for (OpId id : whole.dp.graph.LiveOps())
    used.insert(first_server[static_cast<size_t>(id)]);
  EXPECT_EQ(used, (std::set<DeviceId>{0, 1, 2, 3}));
}

TEST(StageCut, CopyRejectsAnotherModelsSegments) {
  const Cluster cluster = Cluster::SingleServer(2);
  const Chain two = BuildChain({1e-3, 1e-3}, {0, 0});
  const Chain three = BuildChain({1e-3, 1e-3, 1e-3}, {0, 0, 0});
  const PipelineSegments from = SegmentPipeline(two.graph, cluster, two.comp);
  EXPECT_THROW(
      CopyStageMap(from, PipelinePlacement(from, cluster, 2, 0.92),
                   SegmentPipeline(three.graph, cluster, three.comp)),
      std::logic_error);
}

TEST(Pipeline, BuildPipelineIsTheCalculatorsPipelineStart) {
  // Same graph, same bootstrap profile, same cut: `fastt compare`'s pipeline
  // row is the start RunFastT measures. The doubled pipeline RunFastT
  // measures after the rounds is that cut copied onto the DP graph at
  // 2|D| micro-batches, under its micro-batch-major order, and its OOM flag
  // agrees with its noise-free replay on that graph.
  const ModelSpec& spec = FindModel("lenet");
  const Cluster cluster = Cluster::SingleServer(4);
  CalculatorOptions options;
  options.max_rounds = 0;
  const CalculatorResult ft = RunFastT(spec.build, spec.name,
                                       spec.strong_batch, Scaling::kStrong,
                                       cluster, options);
  const PipelineGraph p =
      BuildPipeline(spec.build, spec.name, spec.strong_batch, 4, cluster);
  ASSERT_EQ(ft.starts.size(), 2u);
  EXPECT_EQ(ft.starts[1].name, "pipeline");
  EXPECT_EQ(ft.starts[1].placement, p.placement);
  EXPECT_EQ(PrioritiesFromOrder(ft.starts[1].order, p.graph.num_slots()),
            p.priorities);

  const StartStrategy& doubled = ft.doubled_pipeline;
  ASSERT_EQ(doubled.name, "pipeline");
  const DataParallelGraph dp = BuildDataParallel(
      spec.build, spec.name, spec.strong_batch, 8, Scaling::kStrong);
  const CompCostModel unpriced;
  EXPECT_EQ(doubled.placement,
            CopyStageMap(SegmentPipeline(p.graph, cluster, unpriced),
                         p.placement,
                         SegmentPipeline(dp.graph, cluster, unpriced)));
  EXPECT_EQ(doubled.order, MicroBatchMajorOrder(dp.graph));
  SimOptions so;
  so.dispatch = DispatchMode::kPriority;
  so.priorities = PrioritiesFromOrder(doubled.order, dp.graph.num_slots());
  const SimResult replay = Simulate(dp.graph, doubled.placement, cluster, so);
  EXPECT_EQ(doubled.oom, replay.oom);
}

}  // namespace
}  // namespace fastt
