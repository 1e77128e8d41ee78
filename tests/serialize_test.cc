#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/dpos.h"
#include "core/strategy_io.h"
#include "graph/rewrite.h"
#include "graph/serialize.h"
#include "models/model_zoo.h"
#include "sim/cluster.h"

namespace fastt {
namespace {

TEST(GraphSerialize, RoundTripsSmallGraph) {
  Graph g("tiny");
  Operation a;
  a.name = "a";
  a.type = OpType::kConv2D;
  a.output_shape = TensorShape{2, 4, 4, 8};
  a.flops = 123.5;
  a.bytes_touched = 456;
  a.param_bytes = 789;
  a.batch = 2;
  a.channels = 8;
  a.efficiency_override = 0.82;
  a.cost_key = "a_key";
  const OpId ia = g.AddOp(std::move(a));
  Operation b;
  b.name = "b";
  b.type = OpType::kApplyGradient;
  b.output_shape = TensorShape{0};
  b.is_backward = true;
  b.colocate_with = ia;
  const OpId ib = g.AddOp(std::move(b));
  g.AddEdge(ia, ib, 4096);

  const Graph copy = DeserializeGraph(SerializeGraph(g));
  EXPECT_EQ(copy.name(), "tiny");
  EXPECT_EQ(copy.num_live_ops(), 2);
  const Operation& ca = copy.op(ia);
  EXPECT_EQ(ca.name, "a");
  EXPECT_EQ(ca.type, OpType::kConv2D);
  EXPECT_EQ(ca.output_shape, TensorShape({2, 4, 4, 8}));
  EXPECT_DOUBLE_EQ(ca.flops, 123.5);
  EXPECT_EQ(ca.param_bytes, 789);
  EXPECT_DOUBLE_EQ(ca.efficiency_override, 0.82);
  EXPECT_EQ(ca.cost_key, "a_key");
  const Operation& cb = copy.op(ib);
  EXPECT_TRUE(cb.is_backward);
  EXPECT_EQ(cb.colocate_with, ia);
  ASSERT_EQ(copy.Succs(ia), std::vector<OpId>{ib});
  for (EdgeId e : copy.out_edges(ia)) EXPECT_EQ(copy.edge(e).bytes, 4096);
}

TEST(GraphSerialize, RejectsShapeRankAboveInlineCapacity) {
  // Shapes hold their dims inline, up to TensorShape::kMaxRank of them.
  ASSERT_EQ(TensorShape::kMaxRank, 4);
  EXPECT_NO_THROW(TensorShape({1, 2, 3, 4}));
  EXPECT_THROW(TensorShape({1, 2, 3, 4, 5}), std::logic_error);
  const std::vector<int64_t> five = {1, 2, 3, 4, 5};
  EXPECT_THROW(TensorShape{std::span<const int64_t>(five)}, std::logic_error);

  Graph g("wide");
  Operation a;
  a.name = "a";
  a.output_shape = TensorShape{1, 2, 3, 4};
  g.AddOp(std::move(a));
  std::string text = SerializeGraph(g);
  EXPECT_EQ(DeserializeGraph(text).op(0).output_shape,
            TensorShape({1, 2, 3, 4}));
  const std::string dims = " dims 1 2 3 4";
  const size_t at = text.find(dims);
  ASSERT_NE(at, std::string::npos);
  text.insert(at + dims.size(), " 5");
  EXPECT_THROW(DeserializeGraph(text), std::logic_error);
}

TEST(GraphSerialize, PreservesDeadSlotsAndIds) {
  // Split rewrites tombstone ops; OpIds (and OpId-indexed vectors like a
  // placement) must survive the round trip.
  Graph g = BuildSingle(FindModel("lenet"), 16);
  const OpId conv = g.FindOp("conv2");
  SplitOperation(g, conv, SplitDim::kBatch, 2);
  const int32_t slots = g.num_slots();
  const int32_t live = g.num_live_ops();

  const Graph copy = DeserializeGraph(SerializeGraph(g));
  EXPECT_EQ(copy.num_slots(), slots);
  EXPECT_EQ(copy.num_live_ops(), live);
  EXPECT_TRUE(copy.op(conv).dead);
  EXPECT_NE(copy.FindOp("conv2/part0"), kInvalidOp);
  EXPECT_NO_THROW(copy.Validate());
}

TEST(GraphSerialize, RoundTripsWholeModel) {
  const Graph g = BuildSingle(FindModel("alexnet"), 32);
  const Graph copy = DeserializeGraph(SerializeGraph(g));
  EXPECT_EQ(copy.num_live_ops(), g.num_live_ops());
  EXPECT_EQ(copy.num_live_edges(), g.num_live_edges());
  EXPECT_NEAR(copy.TotalFlops(), g.TotalFlops(), 1.0);
  EXPECT_EQ(copy.TotalParamBytes(), g.TotalParamBytes());
  // Spot-check a deep op survives intact.
  const OpId fc = copy.FindOp("fc6");
  ASSERT_NE(fc, kInvalidOp);
  EXPECT_EQ(copy.op(fc).type, OpType::kMatMul);
}

TEST(GraphSerialize, RejectsGarbage) {
  EXPECT_THROW(DeserializeGraph("not a graph"), std::logic_error);
  EXPECT_THROW(DeserializeGraph("fastt_graph 99\n"), std::logic_error);
}

TEST(StrategySerialize, RoundTrips) {
  Strategy s;
  s.placement = {0, 1, 1, kInvalidDevice, 2};
  s.execution_order = {0, 2, 1, 4};
  s.predicted_makespan = 0.125;
  s.splits.push_back({"rep0/conv1_2", SplitDim::kChannel, 4});
  s.splits.push_back({"rep1/fc6", SplitDim::kBatch, 2});

  const Strategy copy = DeserializeStrategy(SerializeStrategy(s));
  EXPECT_EQ(copy.placement, s.placement);
  EXPECT_EQ(copy.execution_order, s.execution_order);
  EXPECT_DOUBLE_EQ(copy.predicted_makespan, 0.125);
  ASSERT_EQ(copy.splits.size(), 2u);
  EXPECT_EQ(copy.splits[0].op_name, "rep0/conv1_2");
  EXPECT_EQ(copy.splits[0].dim, SplitDim::kChannel);
  EXPECT_EQ(copy.splits[0].num_splits, 4);
  EXPECT_EQ(copy.splits[1].op_name, "rep1/fc6");
}

TEST(StrategySerialize, RoundTripsScheduledStrategyWithGlueOps) {
  // A strategy as OS-DPOS emits it: the graph rewritten with a committed
  // split, so the placement and execution order cover the split/concat glue
  // ops, and the split list records the decision.
  Graph g = BuildSingle(FindModel("alexnet"), 32);
  const OpId conv = g.FindOp("conv3");
  ASSERT_NE(conv, kInvalidOp);
  SplitOperation(g, conv, SplitDim::kBatch, 4);

  const Cluster cluster = Cluster::SingleServer(4);
  CompCostModel comp;
  CommCostModel comm;
  const DposResult sched = Dpos(g, cluster, comp, comm);
  Strategy s = sched.strategy;
  s.splits.push_back({"conv3", SplitDim::kBatch, 4});

  // The glue ops really are part of the serialized artifact.
  for (const char* name : {"conv3/split0", "conv3/part0", "conv3/part3",
                           "conv3/concat"}) {
    const OpId id = g.FindOp(name);
    ASSERT_NE(id, kInvalidOp) << name;
    EXPECT_NE(s.placement[static_cast<size_t>(id)], kInvalidDevice) << name;
    EXPECT_NE(std::find(s.execution_order.begin(), s.execution_order.end(),
                        id),
              s.execution_order.end())
        << name;
  }
  // The tombstoned original is excluded from the order.
  EXPECT_EQ(std::find(s.execution_order.begin(), s.execution_order.end(),
                      conv),
            s.execution_order.end());

  const Strategy copy = DeserializeStrategy(SerializeStrategy(s));
  EXPECT_EQ(copy.placement, s.placement);
  EXPECT_EQ(copy.execution_order, s.execution_order);
  EXPECT_DOUBLE_EQ(copy.predicted_makespan, s.predicted_makespan);
  ASSERT_EQ(copy.splits.size(), 1u);
  EXPECT_EQ(copy.splits[0].op_name, "conv3");
  EXPECT_EQ(copy.splits[0].dim, SplitDim::kBatch);
  EXPECT_EQ(copy.splits[0].num_splits, 4);
  // Serialization is canonical: a round-trip re-serializes byte-identically
  // (what the jobs=N differential tests rely on for strategy comparison).
  EXPECT_EQ(SerializeStrategy(copy), SerializeStrategy(s));
}

TEST(StrategySerialize, MicroBatchCountIsWrittenOnlyWhenRecorded) {
  // A strategy on the graph FastT searches writes no micro_batches record,
  // so files written before the record existed read and write unchanged.
  Strategy s;
  s.placement = {0, 1};
  s.execution_order = {1, 0};
  const std::string plain = SerializeStrategy(s);
  EXPECT_EQ(plain.find("micro_batches"), std::string::npos);
  EXPECT_EQ(DeserializeStrategy(plain).micro_batches, 0);
  s.micro_batches = 16;
  const std::string doubled = SerializeStrategy(s);
  EXPECT_NE(doubled.find("\nmicro_batches 16\n"), std::string::npos);
  const Strategy copy = DeserializeStrategy(doubled);
  EXPECT_EQ(copy.micro_batches, 16);
  EXPECT_EQ(copy.placement, s.placement);
  EXPECT_EQ(SerializeStrategy(copy), doubled);
  EXPECT_THROW(DeserializeStrategy("fastt_strategy 1\nmicro_batches 0\n"),
               std::logic_error);
}

TEST(StrategySerialize, EmptyStrategy) {
  const Strategy copy = DeserializeStrategy(SerializeStrategy(Strategy{}));
  EXPECT_TRUE(copy.placement.empty());
  EXPECT_TRUE(copy.execution_order.empty());
  EXPECT_TRUE(copy.splits.empty());
}

TEST(StrategySerialize, RejectsGarbage) {
  EXPECT_THROW(DeserializeStrategy("junk"), std::logic_error);
}

}  // namespace
}  // namespace fastt
