#include <gtest/gtest.h>

#include <algorithm>

#include "graph/dot.h"
#include "graph/graph.h"
#include "graph/shape.h"

namespace fastt {
namespace {

Operation MakeOp(const std::string& name, double flops = 1.0,
                 TensorShape shape = TensorShape{4}) {
  Operation op;
  op.name = name;
  op.type = OpType::kRelu;
  op.output_shape = std::move(shape);
  op.flops = flops;
  return op;
}

TEST(Shape, DTypeSizes) {
  EXPECT_EQ(DTypeSize(DType::kF32), 4);
  EXPECT_EQ(DTypeSize(DType::kF16), 2);
  EXPECT_EQ(DTypeSize(DType::kI32), 4);
  EXPECT_EQ(DTypeSize(DType::kI64), 8);
}

TEST(Shape, Elements) {
  EXPECT_EQ(TensorShape({2, 3, 4}).num_elements(), 24);
  EXPECT_EQ(TensorShape{}.num_elements(), 1);  // scalar
  EXPECT_EQ(TensorShape({5}).ByteSize(DType::kF32), 20);
}

TEST(Shape, WithDim) {
  const TensorShape s({2, 3});
  EXPECT_EQ(s.WithDim(1, 7).dim(1), 7);
  EXPECT_EQ(s.dim(1), 3);  // original untouched
}

TEST(Shape, ToString) {
  EXPECT_EQ(TensorShape({64, 224, 224, 3}).ToString(), "[64,224,224,3]");
  EXPECT_EQ(TensorShape{}.ToString(), "[]");
}

TEST(Shape, RejectsNegativeDims) {
  EXPECT_THROW(TensorShape({2, -1}), std::logic_error);
}

TEST(Graph, AddOpAssignsIds) {
  Graph g;
  const OpId a = g.AddOp(MakeOp("a"));
  const OpId b = g.AddOp(MakeOp("b"));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(g.num_live_ops(), 2);
  EXPECT_EQ(g.op(a).name, "a");
}

TEST(Graph, DuplicateNamesRejected) {
  Graph g;
  g.AddOp(MakeOp("a"));
  EXPECT_THROW(g.AddOp(MakeOp("a")), std::logic_error);
}

TEST(Graph, EdgeDefaultsToProducerBytes) {
  Graph g;
  const OpId a = g.AddOp(MakeOp("a", 1.0, TensorShape{10}));  // 40 bytes f32
  const OpId b = g.AddOp(MakeOp("b"));
  const EdgeId e = g.AddEdge(a, b);
  EXPECT_EQ(g.edge(e).bytes, 40);
  const EdgeId e2 = g.AddEdge(a, b, 8);
  EXPECT_EQ(g.edge(e2).bytes, 8);
}

TEST(Graph, SelfEdgeRejected) {
  Graph g;
  const OpId a = g.AddOp(MakeOp("a"));
  EXPECT_THROW(g.AddEdge(a, a), std::logic_error);
}

TEST(Graph, PredsSuccsDeduplicate) {
  Graph g;
  const OpId a = g.AddOp(MakeOp("a"));
  const OpId b = g.AddOp(MakeOp("b"));
  g.AddEdge(a, b);
  g.AddEdge(a, b);  // second tensor between the same pair
  EXPECT_EQ(g.Succs(a).size(), 1u);
  EXPECT_EQ(g.Preds(b).size(), 1u);
  EXPECT_EQ(g.num_live_edges(), 2);
}

TEST(Graph, RemoveOpTombstones) {
  Graph g;
  const OpId a = g.AddOp(MakeOp("a"));
  const OpId b = g.AddOp(MakeOp("b"));
  const OpId c = g.AddOp(MakeOp("c"));
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.RemoveOp(b);
  EXPECT_EQ(g.num_live_ops(), 2);
  EXPECT_TRUE(g.op(b).dead);
  EXPECT_TRUE(g.Succs(a).empty());
  EXPECT_TRUE(g.Preds(c).empty());
  EXPECT_EQ(g.FindOp("b"), kInvalidOp);
  // Name becomes reusable after removal.
  EXPECT_NO_THROW(g.AddOp(MakeOp("b")));
}

TEST(Graph, TopoOrderRespectsEdges) {
  Graph g;
  const OpId a = g.AddOp(MakeOp("a"));
  const OpId b = g.AddOp(MakeOp("b"));
  const OpId c = g.AddOp(MakeOp("c"));
  g.AddEdge(b, a);  // b before a
  g.AddEdge(a, c);
  const auto order = g.TopoOrder();
  auto pos = [&](OpId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(b), pos(a));
  EXPECT_LT(pos(a), pos(c));
}

TEST(Graph, CycleDetection) {
  Graph g;
  const OpId a = g.AddOp(MakeOp("a"));
  const OpId b = g.AddOp(MakeOp("b"));
  g.AddEdge(a, b);
  EXPECT_TRUE(g.IsAcyclic());
  g.AddEdge(b, a);
  EXPECT_FALSE(g.IsAcyclic());
  EXPECT_THROW(g.TopoOrder(), std::logic_error);
}

TEST(Graph, LongestPathFromExit) {
  // a(1) -> b(2) -> d(4);  a -> c(10) -> d.  Edge weight = bytes.
  Graph g;
  const OpId a = g.AddOp(MakeOp("a", 1.0));
  const OpId b = g.AddOp(MakeOp("b", 2.0));
  const OpId c = g.AddOp(MakeOp("c", 10.0));
  const OpId d = g.AddOp(MakeOp("d", 4.0));
  g.AddEdge(a, b, 0);
  g.AddEdge(a, c, 0);
  g.AddEdge(b, d, 0);
  g.AddEdge(c, d, 0);
  const auto v = g.LongestPathFromExit(
      [](const Operation& op) { return op.flops; },
      [](const Edge&) { return 0.0; });
  EXPECT_DOUBLE_EQ(v[static_cast<size_t>(d)], 4.0);
  EXPECT_DOUBLE_EQ(v[static_cast<size_t>(c)], 14.0);
  EXPECT_DOUBLE_EQ(v[static_cast<size_t>(b)], 6.0);
  EXPECT_DOUBLE_EQ(v[static_cast<size_t>(a)], 15.0);  // via c
}

TEST(Graph, LongestPathUsesEdgeWeights) {
  Graph g;
  const OpId a = g.AddOp(MakeOp("a", 1.0));
  const OpId b = g.AddOp(MakeOp("b", 1.0));
  g.AddEdge(a, b, 100);
  const auto v = g.LongestPathFromExit(
      [](const Operation& op) { return op.flops; },
      [](const Edge& e) { return static_cast<double>(e.bytes); });
  EXPECT_DOUBLE_EQ(v[static_cast<size_t>(a)], 102.0);
}

TEST(Graph, TotalsSkipDeadOps) {
  Graph g;
  const OpId a = g.AddOp(MakeOp("a", 5.0));
  Operation weighted = MakeOp("w", 7.0);
  weighted.param_bytes = 128;
  g.AddOp(std::move(weighted));
  EXPECT_DOUBLE_EQ(g.TotalFlops(), 12.0);
  EXPECT_EQ(g.TotalParamBytes(), 128);
  g.RemoveOp(a);
  EXPECT_DOUBLE_EQ(g.TotalFlops(), 7.0);
}

TEST(Graph, ValidatePassesOnWellFormed) {
  Graph g("test");
  const OpId a = g.AddOp(MakeOp("a"));
  const OpId b = g.AddOp(MakeOp("b"));
  g.AddEdge(a, b);
  EXPECT_NO_THROW(g.Validate());
}

TEST(Dot, ExportsNodesAndEdges) {
  Graph g("viz");
  const OpId a = g.AddOp(MakeOp("alpha"));
  const OpId b = g.AddOp(MakeOp("beta"));
  g.AddEdge(a, b);
  const std::string dot = ExportDot(g, {0, 1});
  EXPECT_NE(dot.find("alpha"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
}

TEST(OpTypeTraits, ParallelizableDims) {
  const auto conv = ParallelizableDims(OpType::kConv2D);
  EXPECT_EQ(conv.size(), 2u);
  const auto bn = ParallelizableDims(OpType::kBatchNorm);
  EXPECT_TRUE(bn.empty());  // the paper's explicit non-splittable example
  const auto mm = ParallelizableDims(OpType::kMatMul);
  EXPECT_EQ(mm.size(), 2u);
}

TEST(OpTypeTraits, ComputeBoundAndGradFlags) {
  EXPECT_TRUE(IsComputeBound(OpType::kMatMul));
  EXPECT_FALSE(IsComputeBound(OpType::kRelu));
  EXPECT_TRUE(IsGradOp(OpType::kConv2DBackpropFilter));
  EXPECT_FALSE(IsGradOp(OpType::kConv2D));
  EXPECT_FALSE(IsMathOp(OpType::kVariable));
  EXPECT_TRUE(IsMathOp(OpType::kConv2D));
}

}  // namespace
}  // namespace fastt
