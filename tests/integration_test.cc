// End-to-end invariants tying the whole stack to the paper's headline
// claims. These run the full FastT workflow (profiling, cost models,
// OS-DPOS, rollback) against the simulated testbed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <tuple>

#include "analysis/verifier.h"
#include "core/pipeline.h"
#include "core/portfolio.h"
#include "core/strategy_calculator.h"
#include "core/strategy_io.h"
#include "graph/serialize.h"
#include "models/model_zoo.h"
#include "util/strings.h"

namespace fastt {
namespace {

TEST(Integration, Table1ShapeFastTNotWorseAcrossModels) {
  // A fast cross-section of Table 1: on 2 GPUs FastT should match or beat
  // data parallelism for every model family we spot-check.
  const Cluster c = Cluster::SingleServer(2);
  for (const char* name : {"lenet", "vgg19", "rnnlm"}) {
    const ModelSpec& spec = FindModel(name);
    CalculatorOptions options;
    options.max_rounds = 4;
    const auto dp = RunDataParallelBaseline(
        spec.build, spec.name, spec.strong_batch, Scaling::kStrong, c,
        options);
    const auto ft = RunFastT(spec.build, spec.name, spec.strong_batch,
                             Scaling::kStrong, c, options);
    EXPECT_GE(SamplesPerSecond(ft), 0.97 * SamplesPerSecond(dp)) << name;
  }
}

TEST(Integration, Table2WeakScalingGainsAreSmaller) {
  // Paper §6.3: weak-scaling improvements are smaller than strong-scaling
  // ones because per-GPU utilization is already high.
  const ModelSpec& spec = FindModel("vgg19");
  const Cluster c = Cluster::SingleServer(4);
  CalculatorOptions options;
  options.max_rounds = 5;
  const auto dp_strong = RunDataParallelBaseline(
      spec.build, spec.name, 64, Scaling::kStrong, c, options);
  const auto ft_strong =
      RunFastT(spec.build, spec.name, 64, Scaling::kStrong, c, options);
  const auto dp_weak = RunDataParallelBaseline(
      spec.build, spec.name, 64, Scaling::kWeak, c, options);
  const auto ft_weak =
      RunFastT(spec.build, spec.name, 64, Scaling::kWeak, c, options);
  const double strong_gain =
      SamplesPerSecond(ft_strong) / SamplesPerSecond(dp_strong);
  const double weak_gain =
      SamplesPerSecond(ft_weak) / SamplesPerSecond(dp_weak);
  EXPECT_GE(weak_gain, 0.97);
  EXPECT_LT(weak_gain, strong_gain + 0.05);
}

TEST(Integration, Table3BertFeasibilityMatrix) {
  const ModelSpec& spec = FindModel("bert_large");
  const Cluster c1 = Cluster::SingleServer(1);
  const Cluster c2 = Cluster::SingleServer(2);
  CalculatorOptions options;
  options.max_rounds = 3;

  // Batch 16 trains everywhere.
  EXPECT_FALSE(RunDataParallelBaseline(spec.build, spec.name, 16,
                                       Scaling::kStrong, c1, options)
                   .final_sim.oom);
  // Batch 32: single GPU OOM, 2-GPU DP fine.
  EXPECT_TRUE(RunDataParallelBaseline(spec.build, spec.name, 32,
                                      Scaling::kStrong, c1, options)
                  .final_sim.oom);
  EXPECT_FALSE(RunDataParallelBaseline(spec.build, spec.name, 32,
                                       Scaling::kStrong, c2, options)
                   .final_sim.oom);
  // Batch 40: 2-GPU DP OOM, FastT feasible (the paper's headline row).
  EXPECT_TRUE(RunDataParallelBaseline(spec.build, spec.name, 40,
                                      Scaling::kStrong, c2, options)
                  .final_sim.oom);
  const auto ft40 =
      RunFastT(spec.build, spec.name, 40, Scaling::kStrong, c2, options);
  EXPECT_FALSE(ft40.final_sim.oom);
}

TEST(Integration, Fig2OrderEnforcementHelps) {
  // Paper Fig. 2: enforcing FastT's execution order beats the default
  // executor's (arbitrary) ready-queue order on the same placement.
  const ModelSpec& spec = FindModel("vgg19");
  const Cluster c = Cluster::SingleServer(2);
  CalculatorOptions options;
  options.max_rounds = 4;
  const auto ft = RunFastT(spec.build, spec.name, spec.strong_batch,
                           Scaling::kStrong, c, options);
  const auto priorities = PrioritiesFromOrder(
      ft.strategy.execution_order, ft.graph.num_slots());

  auto measure = [&](DispatchMode mode) {
    double total = 0.0;
    for (int i = 0; i < 3; ++i) {
      SimOptions so;
      so.dispatch = mode;
      so.priorities = priorities;
      so.seed = 400 + static_cast<uint64_t>(i);
      total += Simulate(ft.graph, ft.strategy.placement, c, so).makespan;
    }
    return total / 3;
  };
  EXPECT_LE(measure(DispatchMode::kPriority),
            measure(DispatchMode::kRandom) * 1.02);
}

TEST(Integration, Fig4PlacementIsUneven) {
  // Paper §6.5 / Fig. 4: FastT does not allocate ops evenly; replicas of
  // large-parameter ops cluster on one GPU.
  const ModelSpec& spec = FindModel("vgg19");
  const Cluster c = Cluster::SingleServer(4);
  CalculatorOptions options;
  const auto ft = RunFastT(spec.build, spec.name, 64, Scaling::kStrong, c,
                           options);
  std::map<DeviceId, int> counts;
  for (OpId id : ft.graph.LiveOps())
    ++counts[ft.strategy.placement[static_cast<size_t>(id)]];
  int max_count = 0, min_count = 1 << 30;
  for (const auto& [d, n] : counts) {
    max_count = std::max(max_count, n);
    min_count = std::min(min_count, n);
  }
  EXPECT_GT(max_count, min_count);

  // All four fc6 replicas share a device with the fc6 weights.
  const OpId var = ft.graph.FindOp("rep0/fc6/weights");
  ASSERT_NE(var, kInvalidOp);
  const DeviceId home = ft.strategy.placement[static_cast<size_t>(var)];
  int colocated = 0;
  for (int r = 0; r < 4; ++r) {
    const OpId fc = ft.graph.FindOp(StrFormat("rep%d/fc6", r));
    if (fc == kInvalidOp) continue;  // possibly split
    if (ft.strategy.placement[static_cast<size_t>(fc)] == home) ++colocated;
  }
  EXPECT_GE(colocated, 3);
}

TEST(Integration, Fig5FastTTradesComputeForMemcpy) {
  // Paper Fig. 5: FastT reduces memcpy time relative to data parallelism
  // (possibly at the cost of more compute on some device).
  const ModelSpec& spec = FindModel("vgg19");
  const Cluster c = Cluster::SingleServer(2);
  CalculatorOptions options;
  const auto dp = RunDataParallelBaseline(spec.build, spec.name, 64,
                                          Scaling::kStrong, c, options);
  const auto ft =
      RunFastT(spec.build, spec.name, 64, Scaling::kStrong, c, options);
  EXPECT_LE(ft.final_sim.total_memcpy_s,
            dp.final_sim.total_memcpy_s * 1.05);
}

TEST(Integration, DistributedSettingAmplifiesGains) {
  // Paper §6.3: FastT's improvement over DP is larger in the 2-server
  // setting because DP pays cross-server gradient traffic.
  const ModelSpec& spec = FindModel("alexnet");
  CalculatorOptions options;
  options.max_rounds = 4;
  const Cluster single = Cluster::SingleServer(2);
  const Cluster dist = Cluster::MultiServer(2, 1);
  const double gain_single =
      SamplesPerSecond(RunFastT(spec.build, spec.name, 256, Scaling::kStrong,
                                single, options)) /
      SamplesPerSecond(RunDataParallelBaseline(
          spec.build, spec.name, 256, Scaling::kStrong, single, options));
  const double gain_dist =
      SamplesPerSecond(RunFastT(spec.build, spec.name, 256, Scaling::kStrong,
                                dist, options)) /
      SamplesPerSecond(RunDataParallelBaseline(
          spec.build, spec.name, 256, Scaling::kStrong, dist, options));
  EXPECT_GT(gain_dist, gain_single * 0.95);
}

TEST(Integration, HeterogeneousDevicesAbsorbMoreWork) {
  // The cost models learn per-device speeds from profiles alone; FastT's
  // placement shifts work toward a faster GPU and beats an even DP split.
  Cluster base = Cluster::SingleServer(2);
  std::vector<Device> devices = base.devices();
  devices[0].speed_factor = 2.0;
  const Cluster cluster(std::move(devices), base.params());
  const ModelSpec& spec = FindModel("vgg19");
  CalculatorOptions options;
  const auto dp = RunDataParallelBaseline(spec.build, spec.name, 64,
                                          Scaling::kStrong, cluster, options);
  const auto ft =
      RunFastT(spec.build, spec.name, 64, Scaling::kStrong, cluster, options);
  EXPECT_GT(SamplesPerSecond(ft), 1.1 * SamplesPerSecond(dp));
}

// The zoo on one server at 2, 4 and 8 GPUs and on two servers of 4 and 8:
// RunFastT's returned strategy verifies, fits in memory under its declared
// order, and is no slower (noise-free) than the best start RunFastT measured
// that fits, nor than the doubled pipeline replayed on its own graph, up to
// 5% for candidates that commit on noisy measurements. Each start's OOM
// flag, and the doubled pipeline's, from its noisy measured steps, agrees
// with its noise-free replay. The property holds for any round count, so
// most configs run one round; bert_large/8, transformer/8 and resnet200/8
// run at the default options and replay within their pinned bounds.
// bert_large/8 replays in at most 80 ms: its pipeline start drains the last
// micro-batch's backward pass without gradient updates cutting in (an
// executor whose idle device chose before the rest of the instant was
// applied replays it in 97.8 ms). transformer/8 (at most 130 ms) and
// resnet200/8 (at most 105 ms) return the doubled pipeline; with M = |D|
// micro-batches they replay in 149.2 and 118.6 ms.
double Resimulate(const Graph& g, const std::vector<DeviceId>& placement,
                  const std::vector<OpId>& order, const Cluster& cluster) {
  SearchResult r;
  r.graph = g;
  r.placement = placement;
  r.execution_order = order;
  return ResimulateIteration(r, cluster);
}

void ExpectNoSlowerThanTheBestStart(const std::string& name,
                                    const Cluster& cluster) {
  const ModelSpec& spec = FindModel(name);
  const int gpus = cluster.num_devices();
  const int servers = cluster.device(gpus - 1).server + 1;
  const std::map<std::string, double> bound_s = {
      {"bert_large", 0.080}, {"transformer", 0.130}, {"resnet200", 0.105}};
  const bool pinned = gpus == 8 && servers == 1 && bound_s.count(name) > 0;
  CalculatorOptions options;
  if (!pinned) options.max_rounds = 1;
  const CalculatorResult ft = RunFastT(spec.build, spec.name,
                                       spec.strong_batch, Scaling::kStrong,
                                       cluster, options);
  EXPECT_EQ(VerifyStrategy(ft.graph, ft.strategy, cluster).errors, 0);
  const double returned = Resimulate(ft.graph, ft.strategy.placement,
                                     ft.strategy.execution_order, cluster);
  ASSERT_TRUE(std::isfinite(returned)) << "the returned strategy is OOM";
  if (pinned) EXPECT_LE(returned, bound_s.at(name));

  // Every zoo model fits one GPU at its strong batch, so the starts are
  // shared-variable DP and one pipeline per prefix of servers, all on the
  // DP graph.
  ASSERT_EQ(ft.starts.size(), static_cast<size_t>(1 + servers));
  EXPECT_EQ(ft.starts[0].name, "data_parallel");
  EXPECT_EQ(ft.starts[1].name, "pipeline");
  const DataParallelGraph dp = BuildDataParallel(
      spec.build, spec.name, spec.strong_batch, gpus, Scaling::kStrong);
  double best_start = std::numeric_limits<double>::infinity();
  bool pipeline_fits = false;
  for (size_t i = 0; i < ft.starts.size(); ++i) {
    const StartStrategy& s = ft.starts[i];
    const double replay = Resimulate(dp.graph, s.placement, s.order, cluster);
    EXPECT_EQ(s.oom, !std::isfinite(replay)) << s.name;
    best_start = std::min(best_start, replay);
    if (i > 0 && !s.oom) pipeline_fits = true;
  }
  // The doubled pipeline, on the DP graph at 2|D| micro-batches, is built
  // whenever the batch covers them and some pipeline start fits.
  const StartStrategy& doubled = ft.doubled_pipeline;
  ASSERT_EQ(!doubled.name.empty(),
            pipeline_fits && spec.strong_batch >= 2 * gpus);
  if (!doubled.name.empty()) {
    const DataParallelGraph doubled_dp =
        BuildDataParallel(spec.build, spec.name, spec.strong_batch, 2 * gpus,
                          Scaling::kStrong);
    const double replay = Resimulate(doubled_dp.graph, doubled.placement,
                                     doubled.order, cluster);
    EXPECT_EQ(doubled.oom, !std::isfinite(replay)) << "doubled pipeline";
    best_start = std::min(best_start, replay);
  }
  if (std::isfinite(best_start)) {
    EXPECT_LE(returned, 1.05 * best_start)
        << StrFormat("returned %.3f ms, best start %.3f ms", returned * 1e3,
                     best_start * 1e3);
  }
}

const auto kZooModels =
    ::testing::Values("lenet", "alexnet", "vgg19", "inception_v3",
                      "resnet200", "rnnlm", "gnmt", "transformer",
                      "bert_large");

class ZooStart
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ZooStart, ReturnsAFeasibleStrategyNoSlowerThanTheBestStart) {
  const auto& [name, gpus] = GetParam();
  ExpectNoSlowerThanTheBestStart(name, Cluster::SingleServer(gpus));
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooStart, ::testing::Combine(kZooModels, ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<ZooStart::ParamType>& info) {
      return StrFormat("%s_%d", std::get<0>(info.param).c_str(),
                       std::get<1>(info.param));
    });

// The same on two servers, where the pipeline is also cut over the first
// server alone. The parameter is the GPUs per server.
class ZooStartTwoServers
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ZooStartTwoServers, ReturnsAFeasibleStrategyNoSlowerThanTheBestStart) {
  const auto& [name, gpus_per_server] = GetParam();
  ExpectNoSlowerThanTheBestStart(name,
                                 Cluster::MultiServer(2, gpus_per_server));
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooStartTwoServers,
    ::testing::Combine(kZooModels, ::testing::Values(4, 8)),
    [](const ::testing::TestParamInfo<ZooStartTwoServers::ParamType>& info) {
      return StrFormat("%s_2x%d", std::get<0>(info.param).c_str(),
                       std::get<1>(info.param));
    });

// The doubled pipeline's headline: at the default options gnmt on 8 GPUs
// returns the pipeline start's stage cut run at 16 micro-batches, which
// replays, noise-free, in at most 116 ms (114.6 ms). The cut at 8
// micro-batches, the best start, replays in 131.1 ms; a cut balanced by
// memory runs about 254 ms. The returned strategy records its micro-batch
// count, so a strategy file rebuilds the graph its slot ids refer to.
TEST(PipelineStart, Gnmt8ReturnsAtMost116Ms) {
  const ModelSpec& spec = FindModel("gnmt");
  const Cluster cluster = Cluster::SingleServer(8);
  const CalculatorResult ft = RunFastT(spec.build, spec.name,
                                       spec.strong_batch, Scaling::kStrong,
                                       cluster);
  EXPECT_LE(Resimulate(ft.graph, ft.strategy.placement,
                       ft.strategy.execution_order, cluster),
            0.116);
  EXPECT_EQ(ft.returned_by, "pipeline");
  EXPECT_EQ(ft.micro_batches, 16);
  const Strategy copy = DeserializeStrategy(SerializeStrategy(ft.strategy));
  ASSERT_EQ(copy.micro_batches, 16);
  const DataParallelGraph dp =
      BuildDataParallel(spec.build, spec.name, ft.global_batch,
                        copy.micro_batches, Scaling::kStrong);
  EXPECT_EQ(SerializeGraph(dp.graph), SerializeGraph(ft.graph));
  EXPECT_EQ(VerifyStrategy(dp.graph, copy, cluster).errors, 0);
  const std::string events = ft.events.ToJsonl();
  EXPECT_NE(events.find("\"returned_by\":\"pipeline\",\"micro_batches\":16"),
            std::string::npos);
}

// When the doubled pipeline loses, the DP graph RunFastT released before
// building it is rebuilt, and the returned graph is byte for byte the one
// the rounds searched: bert_large/8's doubled pipeline replays in 79.7 ms
// against its start's 76.5 ms.
TEST(PipelineStart, LosingDoubledPipelineReturnsTheRebuiltDpGraph) {
  const ModelSpec& spec = FindModel("bert_large");
  const Cluster cluster = Cluster::SingleServer(8);
  CalculatorOptions options;
  options.max_rounds = 0;
  const CalculatorResult ft = RunFastT(spec.build, spec.name,
                                       spec.strong_batch, Scaling::kStrong,
                                       cluster, options);
  ASSERT_EQ(ft.doubled_pipeline.name, "pipeline");
  EXPECT_EQ(ft.returned_by, "pipeline");
  EXPECT_EQ(ft.micro_batches, 8);
  EXPECT_EQ(ft.strategy.micro_batches, 0);
  const DataParallelGraph dp = BuildDataParallel(
      spec.build, spec.name, spec.strong_batch, 8, Scaling::kStrong);
  EXPECT_EQ(SerializeGraph(ft.graph), SerializeGraph(dp.graph));
}

// The per-server starts' headline: on two servers of 8 GPUs, gnmt's cut over
// the first server alone keeps its recurrent activations off the slow
// inter-server link, and FastT returns a strategy that runs, noise-free, in
// at most 150 ms (122.6 ms). Without that start FastT returns the cut over
// all 16 devices, 178.6 ms.
TEST(PipelineStart, Gnmt2x8ReturnsAtMost150Ms) {
  const ModelSpec& spec = FindModel("gnmt");
  const Cluster cluster = Cluster::MultiServer(2, 8);
  const CalculatorResult ft = RunFastT(spec.build, spec.name,
                                       spec.strong_batch, Scaling::kStrong,
                                       cluster);
  EXPECT_LE(Resimulate(ft.graph, ft.strategy.placement,
                       ft.strategy.execution_order, cluster),
            0.150);
}

}  // namespace
}  // namespace fastt
