// Property-based sweeps: structural invariants of the executor and the
// scheduling/rewrite stack over randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <string>

#include "core/data_parallel.h"
#include "core/os_dpos.h"
#include "graph/rewrite.h"
#include "models/model_zoo.h"
#include "sim/exec_sim.h"
#include "sim/profiler.h"
#include "util/rng.h"
#include "util/strings.h"

namespace fastt {
namespace {

// Random layered DAG with compute ops (deterministic per seed).
Graph RandomDag(uint64_t seed, int* n_ops_out) {
  Rng rng(seed);
  Graph g;
  const int n = 15 + static_cast<int>(rng.NextBelow(50));
  std::vector<OpId> ids;
  for (int i = 0; i < n; ++i) {
    Operation op;
    op.name = "op" + std::to_string(i);
    op.type = rng.NextBool(0.5) ? OpType::kMatMul : OpType::kRelu;
    op.output_shape = TensorShape{
        static_cast<int64_t>(1 + rng.NextBelow(1 << 16))};
    // A batch extent so the split-rewrite sweeps can partition these ops.
    op.batch = static_cast<int64_t>(4 + rng.NextBelow(8));
    op.flops = rng.NextDouble(0.0, 5e9);
    op.bytes_touched = static_cast<int64_t>(rng.NextBelow(1 << 24));
    const OpId id = g.AddOp(std::move(op));
    const uint64_t fanin = rng.NextBelow(3);
    for (uint64_t k = 0; k < fanin && !ids.empty(); ++k)
      g.AddEdge(ids[rng.NextBelow(ids.size())], id);
    ids.push_back(id);
  }
  *n_ops_out = n;
  return g;
}

class SimInvariantSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimInvariantSweep, ExecutionIsWellFormed) {
  int n = 0;
  Graph g = RandomDag(GetParam(), &n);
  Rng rng(GetParam() * 13 + 1);
  const int devices = 1 + static_cast<int>(rng.NextBelow(4));
  std::vector<DeviceId> placement;
  placement.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    placement.push_back(
        static_cast<DeviceId>(rng.NextBelow(static_cast<uint64_t>(devices))));
  const Cluster cluster = Cluster::SingleServer(devices);
  SimOptions options;
  options.dispatch =
      rng.NextBool(0.5) ? DispatchMode::kFifo : DispatchMode::kRandom;
  options.seed = GetParam();
  const SimResult r = Simulate(g, placement, cluster, options);

  // 1. Every live op executed exactly once, on its assigned device.
  for (OpId id : g.LiveOps()) {
    const OpRecord& rec = r.op_records[static_cast<size_t>(id)];
    EXPECT_EQ(rec.device, placement[static_cast<size_t>(id)]);
    EXPECT_GE(rec.finish, rec.start);
    EXPECT_LE(rec.finish, r.makespan + 1e-12);
  }

  // 2. Serial devices: intervals on one device never overlap.
  std::map<DeviceId, std::vector<std::pair<double, double>>> by_device;
  for (OpId id : g.LiveOps()) {
    const OpRecord& rec = r.op_records[static_cast<size_t>(id)];
    by_device[rec.device].push_back({rec.start, rec.finish});
  }
  for (auto& [device, intervals] : by_device) {
    std::sort(intervals.begin(), intervals.end());
    for (size_t i = 1; i < intervals.size(); ++i)
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-9)
          << "overlap on device " << device;
  }

  // 3. Precedence: a consumer starts no earlier than each producer ends
  // (plus transfer time when the edge crosses devices).
  for (OpId id : g.LiveOps()) {
    for (OpId pred : g.Preds(id)) {
      const auto& crec = r.op_records[static_cast<size_t>(id)];
      const auto& prec = r.op_records[static_cast<size_t>(pred)];
      EXPECT_GE(crec.start, prec.finish - 1e-9);
    }
  }

  // 4. Transfers only between distinct devices; arrivals before consumers.
  for (const TransferRecord& t : r.transfers) {
    EXPECT_NE(t.src, t.dst);
    EXPECT_GE(t.arrival, t.start);
    const auto& crec = r.op_records[static_cast<size_t>(t.dst_op)];
    EXPECT_GE(crec.start, t.arrival - 1e-9);
  }

  // 5. Busy time conservation.
  double busy = 0.0;
  for (double b : r.device_busy_s) busy += b;
  double durations = 0.0;
  for (OpId id : g.LiveOps())
    durations += r.op_records[static_cast<size_t>(id)].duration();
  EXPECT_NEAR(busy, durations, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SimInvariantSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{30}));

class DispatchModeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DispatchModeSweep, PriorityOrderIsHonoredAmongReadyOps) {
  // With all ops independent on one device, priority dispatch must execute
  // exactly in priority order.
  Rng rng(GetParam());
  Graph g;
  const int n = 8;
  std::vector<int64_t> priorities;
  for (int i = 0; i < n; ++i) {
    Operation op;
    op.name = "op" + std::to_string(i);
    op.type = OpType::kMatMul;
    op.output_shape = TensorShape{4};
    op.flops = 1e7;
    g.AddOp(std::move(op));
  }
  for (int i = 0; i < n; ++i) priorities.push_back(i);
  std::shuffle(priorities.begin(), priorities.end(),
               std::mt19937(static_cast<unsigned>(GetParam())));
  SimOptions options;
  options.dispatch = DispatchMode::kPriority;
  options.priorities = priorities;
  const SimResult r = Simulate(g, std::vector<DeviceId>(n, 0),
                               Cluster::SingleServer(1), options);
  std::vector<OpId> order(static_cast<size_t>(n));
  for (OpId id = 0; id < n; ++id) order[static_cast<size_t>(id)] = id;
  std::sort(order.begin(), order.end(), [&](OpId a, OpId b) {
    return r.op_records[static_cast<size_t>(a)].start <
           r.op_records[static_cast<size_t>(b)].start;
  });
  for (size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(priorities[static_cast<size_t>(order[i - 1])],
              priorities[static_cast<size_t>(order[i])]);
}

INSTANTIATE_TEST_SUITE_P(Shuffles, DispatchModeSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{10}));

TEST(SplitEquivalence, SplitGraphDoesSameWork) {
  // Splitting an op preserves total FLOPs and the graph still executes to
  // completion with all fragments run.
  const ModelSpec& spec = FindModel("alexnet");
  Graph g = BuildSingle(spec, 64);
  const double flops_before = g.TotalFlops();
  const OpId conv = g.FindOp("conv3");
  ASSERT_NE(conv, kInvalidOp);
  SplitOperation(g, conv, SplitDim::kBatch, 4);
  EXPECT_NEAR(g.TotalFlops(), flops_before, flops_before * 1e-9);

  const Cluster cluster = Cluster::SingleServer(2);
  std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()), 0);
  // Scatter sub-ops across devices.
  for (int i = 0; i < 4; ++i) {
    const OpId sub = g.FindOp("conv3/part" + std::to_string(i));
    ASSERT_NE(sub, kInvalidOp);
    placement[static_cast<size_t>(sub)] = static_cast<DeviceId>(i % 2);
  }
  const SimResult r = Simulate(g, placement, cluster);
  EXPECT_GT(r.makespan, 0.0);
  for (OpId id : g.LiveOps())
    EXPECT_NE(r.op_records[static_cast<size_t>(id)].device, kInvalidDevice);
}

class OsDposModelSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(OsDposModelSweep, ProducesExecutableStrategies) {
  // For a cross-section of models: OS-DPOS strategies simulate to
  // completion with order enforcement and no precedence violations.
  const ModelSpec& spec = FindModel(GetParam());
  const Cluster cluster = Cluster::SingleServer(2);
  auto dp = BuildDataParallel(spec.build, spec.name,
                              std::min<int64_t>(spec.strong_batch, 64), 2,
                              Scaling::kStrong);
  CompCostModel comp;
  CommCostModel comm;
  {
    SimOptions so;
    const auto sim =
        Simulate(dp.graph, CanonicalDataParallelPlacement(dp), cluster, so);
    const auto profile = ExtractProfile(dp.graph, sim);
    comp.AddProfile(profile);
    comm.AddProfile(profile);
  }
  const OsDposResult os = OsDpos(dp.graph, cluster, comp, comm);
  SimOptions so;
  so.dispatch = DispatchMode::kPriority;
  so.priorities = PrioritiesFromOrder(os.schedule.strategy.execution_order,
                                      os.graph.num_slots());
  const SimResult r =
      Simulate(os.graph, os.schedule.strategy.placement, cluster, so);
  EXPECT_GT(r.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Models, OsDposModelSweep,
                         ::testing::Values("lenet", "alexnet", "rnnlm",
                                           "transformer"));

// ---- Split-trial DPOS inputs ------------------------------------------------
// The contract under test: after any split of the base graph, the inputs
// SplitTrialInputs derives from the base equal a fresh BuildDposInputs of
// the split graph bit for bit in every slot (dead ones included), and list
// scheduling from either gives the same schedule. Committed splits make the
// derived inputs the next base, so later trials also split the sub-ops of
// earlier splits.

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

void ExpectSameInputs(const Graph& g, const DposInputs& got,
                      const DposInputs& want) {
  ASSERT_EQ(got.comp.num_slots(), want.comp.num_slots());
  ASSERT_EQ(got.comp.num_devices(), want.comp.num_devices());
  ASSERT_EQ(got.mem_need.size(), want.mem_need.size());
  ASSERT_EQ(got.rank.size(), want.rank.size());
  for (OpId id = 0; id < g.num_slots(); ++id) {
    const size_t i = static_cast<size_t>(id);
    SCOPED_TRACE(g.op(id).name + (g.op(id).dead ? " (dead)" : ""));
    for (DeviceId d = 0; d < want.comp.num_devices(); ++d)
      ASSERT_EQ(Bits(got.comp.Time(id, d)), Bits(want.comp.Time(id, d)));
    ASSERT_EQ(Bits(got.comp.MaxOverDevices(id)),
              Bits(want.comp.MaxOverDevices(id)));
    ASSERT_EQ(got.mem_need[i], want.mem_need[i]);
    ASSERT_EQ(Bits(got.rank[i]), Bits(want.rank[i]));
  }
  ASSERT_TRUE(std::equal(got.critical_path.begin(), got.critical_path.end(),
                         want.critical_path.begin(),
                         want.critical_path.end()));
}

void ExpectSameSchedule(const Graph& g, const Cluster& cluster,
                        const DposInputs& got, const DposInputs& want) {
  const DposResult a = DposListSchedule(g, cluster, got);
  const DposResult b = DposListSchedule(g, cluster, want);
  ASSERT_EQ(a.strategy.placement, b.strategy.placement);
  for (OpId id = 0; id < g.num_slots(); ++id) {
    const size_t i = static_cast<size_t>(id);
    ASSERT_EQ(Bits(a.start_time[i]), Bits(b.start_time[i])) << g.op(id).name;
    ASSERT_EQ(Bits(a.finish_time[i]), Bits(b.finish_time[i]))
        << g.op(id).name;
  }
  ASSERT_EQ(Bits(a.ft_exit), Bits(b.ft_exit));
  ASSERT_EQ(a.memory_overflow, b.memory_overflow);
}

struct DerivationCounts {
  int splits = 0;
  int cp_splits = 0;      // of an op on the base's rank critical path
  int sub_op_splits = 0;  // of a sub-op an earlier committed split made
  int commits = 0;
};

// `steps` random split trials of `g` under Mark: each derived and checked,
// then undone, or kept (Graph::Commit + SplitTrialInputs::Commit, with the
// new base checked too).
void FuzzSplitTrialInputs(Graph& g, const Cluster& cluster, uint64_t seed,
                          int steps, DerivationCounts* counts) {
  // Cost models from one noisy profiled step of an even spread of the ops,
  // so rows differ per device; split sub-ops price through their basis key
  // and glue ops stay unknown (0), as in the calculator's first round.
  const int32_t n_dev = cluster.num_devices();
  std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()), 0);
  for (OpId id = 0; id < g.num_slots(); ++id)
    placement[static_cast<size_t>(id)] = static_cast<DeviceId>(id % n_dev);
  SimOptions noisy;
  noisy.noise_cv = 0.03;
  noisy.seed = seed;
  const SimResult profiled = Simulate(g, placement, cluster, noisy);
  const RunProfile profile = ExtractProfile(g, profiled);
  CompCostModel comp;
  CommCostModel comm;
  comp.AddProfile(profile);
  comm.AddProfile(profile);

  Rng rng(seed);
  SplitTrialInputs inputs(g, n_dev, comp, comm);
  SplitTrialInputs::Lane lane;
  const int counts_to_try[] = {2, 3, 4, 8};
  for (int step = 0; step < steps; ++step) {
    // Candidates: the base's critical path, or the sub-ops of earlier
    // splits (all live ops until there are some).
    const bool from_cp = rng.NextBool(0.5);
    std::vector<OpId> pool;
    if (from_cp) {
      pool.assign(inputs.base().critical_path.begin(),
                  inputs.base().critical_path.end());
    } else {
      for (OpId id : g.LiveOps())
        if (g.op(id).name.find("/part") != std::string::npos)
          pool.push_back(id);
      if (pool.empty()) pool = g.LiveOps();
    }
    OpId op = kInvalidOp;
    SplitDim dim = SplitDim::kNone;
    int n = 0;
    for (int attempt = 0; attempt < 40 && op == kInvalidOp; ++attempt) {
      const OpId cand = pool[rng.NextBelow(pool.size())];
      const auto dims = ParallelizableDims(g.op(cand).type);
      if (dims.empty()) continue;
      const SplitDim cand_dim = dims[rng.NextBelow(dims.size())];
      const int cand_n = counts_to_try[rng.NextBelow(4)];
      if (!CanSplit(g, cand, cand_dim, cand_n)) continue;
      op = cand;
      dim = cand_dim;
      n = cand_n;
    }
    if (op == kInvalidOp) continue;
    SCOPED_TRACE("split of " + g.op(op).name);
    ++counts->splits;
    if (from_cp) ++counts->cp_splits;
    if (g.op(op).name.find("/part") != std::string::npos)
      ++counts->sub_op_splits;

    const size_t mark = g.Mark();
    SplitOperation(g, op, dim, n);
    const DposInputs fresh = BuildDposInputs(g, n_dev, comp, comm);
    const DposInputs& derived = inputs.Derive(g, op, lane);
    ExpectSameInputs(g, derived, fresh);
    if (::testing::Test::HasFatalFailure()) return;
    ExpectSameSchedule(g, cluster, derived, fresh);
    if (::testing::Test::HasFatalFailure()) return;
    if (rng.NextBool(0.35)) {
      g.Commit(mark);
      inputs.Commit(g, op, lane);
      ++counts->commits;
      ExpectSameInputs(g, inputs.base(), fresh);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      g.Undo(mark);
    }
  }
}

TEST(SplitTrialInputsSweep, DerivedInputsMatchFreshBuildOnSmallZooGraphs) {
  DerivationCounts counts;
  for (const char* model : {"lenet", "alexnet", "rnnlm"}) {
    const ModelSpec& spec = FindModel(model);
    for (int devices : {2, 4}) {
      const Cluster cluster = Cluster::SingleServer(devices);
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        DataParallelGraph dp = BuildDataParallel(
            spec.build, spec.name, 32, devices, Scaling::kStrong);
        SCOPED_TRACE(StrFormat("%s x%d seed %llu", model, devices,
                               static_cast<unsigned long long>(seed)));
        FuzzSplitTrialInputs(dp.graph, cluster, seed * 100 + devices, 12,
                             &counts);
        if (HasFatalFailure()) return;
      }
    }
  }
  // The sweep reaches every case the derivation has to get right.
  EXPECT_GT(counts.splits, 150);
  EXPECT_GT(counts.cp_splits, 40);
  EXPECT_GT(counts.sub_op_splits, 20);
  EXPECT_GT(counts.commits, 40);
}

TEST(SplitTrialInputsSweep, DerivedInputsMatchFreshBuildOnBertLarge8Way) {
  const ModelSpec& spec = FindModel("bert_large");
  const Cluster cluster = Cluster::SingleServer(8);
  DataParallelGraph dp =
      BuildDataParallel(spec.build, spec.name, 16, 8, Scaling::kStrong);
  DerivationCounts counts;
  FuzzSplitTrialInputs(dp.graph, cluster, 7, 10, &counts);
  EXPECT_GT(counts.splits, 5);
  EXPECT_GT(counts.commits, 0);
}

}  // namespace
}  // namespace fastt
