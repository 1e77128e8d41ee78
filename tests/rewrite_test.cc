#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/data_parallel.h"
#include "graph/rewrite.h"
#include "graph/serialize.h"
#include "graph/shape.h"
#include "models/model_zoo.h"
#include "util/rng.h"

namespace fastt {
namespace {

// pre -> conv -> suc, with a parameterized conv.
struct SplitFixture {
  Graph g;
  OpId pre, conv, suc;

  SplitFixture() {
    Operation p;
    p.name = "pre";
    p.type = OpType::kInput;
    p.output_shape = TensorShape{8, 16, 16, 4};
    pre = g.AddOp(std::move(p));

    Operation c;
    c.name = "conv";
    c.type = OpType::kConv2D;
    c.output_shape = TensorShape{8, 16, 16, 32};
    c.flops = 1000.0;
    c.bytes_touched = 5000;
    c.param_bytes = 1152;
    c.batch = 8;
    c.channels = 32;
    c.cost_key = "conv";
    conv = g.AddOp(std::move(c));

    Operation s;
    s.name = "suc";
    s.type = OpType::kRelu;
    s.output_shape = TensorShape{8, 16, 16, 32};
    suc = g.AddOp(std::move(s));

    g.AddEdge(pre, conv);
    g.AddEdge(conv, suc);
  }
};

TEST(CanSplit, Rules) {
  SplitFixture f;
  EXPECT_TRUE(CanSplit(f.g, f.conv, SplitDim::kBatch, 2));
  EXPECT_TRUE(CanSplit(f.g, f.conv, SplitDim::kChannel, 4));
  EXPECT_FALSE(CanSplit(f.g, f.conv, SplitDim::kBatch, 1));   // n >= 2
  EXPECT_FALSE(CanSplit(f.g, f.conv, SplitDim::kBatch, 9));   // extent 8
  EXPECT_FALSE(CanSplit(f.g, f.pre, SplitDim::kBatch, 2));    // Input op
}

TEST(SplitOperation, BatchSplitStructure) {
  SplitFixture f;
  const auto result = SplitOperation(f.g, f.conv, SplitDim::kBatch, 2);
  EXPECT_TRUE(f.g.op(f.conv).dead);
  ASSERT_EQ(result.sub_ops.size(), 2u);
  ASSERT_EQ(result.split_nodes.size(), 1u);  // one predecessor edge
  ASSERT_NE(result.concat_node, kInvalidOp);
  EXPECT_NO_THROW(f.g.Validate());

  // pre -> split -> {sub0, sub1} -> concat -> suc.
  EXPECT_EQ(f.g.Succs(f.pre), std::vector<OpId>{result.split_nodes[0]});
  EXPECT_EQ(f.g.Preds(f.suc), std::vector<OpId>{result.concat_node});
  for (OpId sub : result.sub_ops) {
    EXPECT_EQ(f.g.Preds(sub), std::vector<OpId>{result.split_nodes[0]});
    EXPECT_EQ(f.g.Succs(sub), std::vector<OpId>{result.concat_node});
  }
}

TEST(SplitOperation, BatchSplitConservesFlopsReplicatesWeights) {
  SplitFixture f;
  const auto result = SplitOperation(f.g, f.conv, SplitDim::kBatch, 2);
  double flops = 0.0;
  for (OpId sub : result.sub_ops) {
    const Operation& op = f.g.op(sub);
    flops += op.flops;
    EXPECT_EQ(op.param_bytes, 1152);  // replicated
    EXPECT_EQ(op.batch, 4);
  }
  EXPECT_DOUBLE_EQ(flops, 1000.0);
}

TEST(SplitOperation, ChannelSplitDividesWeightsBroadcastsInput) {
  SplitFixture f;
  const int64_t in_bytes = f.g.op(f.pre).output_bytes();
  const auto result = SplitOperation(f.g, f.conv, SplitDim::kChannel, 4);
  for (OpId sub : result.sub_ops) {
    const Operation& op = f.g.op(sub);
    EXPECT_EQ(op.param_bytes, 1152 / 4);
    EXPECT_EQ(op.channels, 8);
    // Each partition reads the FULL input (fine-grained model parallelism).
    for (EdgeId e : f.g.in_edges(sub)) {
      if (f.g.edge(e).dead) continue;
      EXPECT_EQ(f.g.edge(e).bytes, in_bytes);
    }
  }
}

TEST(SplitOperation, BatchSplitPartitionsInputEdges) {
  SplitFixture f;
  const int64_t in_bytes = f.g.op(f.pre).output_bytes();
  const auto result = SplitOperation(f.g, f.conv, SplitDim::kBatch, 2);
  for (OpId sub : result.sub_ops) {
    for (EdgeId e : f.g.in_edges(sub)) {
      if (f.g.edge(e).dead) continue;
      EXPECT_EQ(f.g.edge(e).bytes, in_bytes / 2);
    }
  }
}

TEST(SplitOperation, UnevenSplitDistributesRemainder) {
  SplitFixture f;
  const auto result = SplitOperation(f.g, f.conv, SplitDim::kBatch, 3);
  std::vector<int64_t> batches;
  for (OpId sub : result.sub_ops) batches.push_back(f.g.op(sub).batch);
  EXPECT_EQ(batches, (std::vector<int64_t>{3, 3, 2}));
  double flops = 0.0;
  for (OpId sub : result.sub_ops) flops += f.g.op(sub).flops;
  EXPECT_NEAR(flops, 1000.0, 1e-9);
}

TEST(SplitOperation, SubOpsCarryCostBasis) {
  SplitFixture f;
  const auto result = SplitOperation(f.g, f.conv, SplitDim::kBatch, 2);
  for (OpId sub : result.sub_ops) {
    const Operation& op = f.g.op(sub);
    EXPECT_EQ(op.cost_basis_key, "conv");
    EXPECT_NEAR(op.cost_scale, 0.5, 1e-12);
    EXPECT_EQ(op.CostKey(), "conv#batch/2");
  }
}

TEST(SplitOperation, ColocatedOpsFollowFirstPartition) {
  SplitFixture f;
  Operation apply;
  apply.name = "conv/apply";
  apply.type = OpType::kApplyGradient;
  apply.output_shape = TensorShape{0};
  apply.colocate_with = f.conv;
  const OpId apply_id = f.g.AddOp(std::move(apply));

  const auto result = SplitOperation(f.g, f.conv, SplitDim::kBatch, 2);
  EXPECT_EQ(f.g.op(apply_id).colocate_with, result.sub_ops.front());
}

TEST(SplitOperation, SubOpCanBeSplitAgain) {
  SplitFixture f;
  const auto first = SplitOperation(f.g, f.conv, SplitDim::kBatch, 2);
  ASSERT_TRUE(CanSplit(f.g, first.sub_ops[0], SplitDim::kBatch, 2));
  const auto second =
      SplitOperation(f.g, first.sub_ops[0], SplitDim::kBatch, 2);
  EXPECT_EQ(second.sub_ops.size(), 2u);
  EXPECT_NO_THROW(f.g.Validate());
}

TEST(SplitOperation, SplittingDeadOpThrows) {
  SplitFixture f;
  SplitOperation(f.g, f.conv, SplitDim::kBatch, 2);
  EXPECT_THROW(SplitOperation(f.g, f.conv, SplitDim::kBatch, 2),
               std::logic_error);
}

TEST(SplitOperation, TerminalOpHasNoConcat) {
  Graph g;
  Operation mm;
  mm.name = "mm";
  mm.type = OpType::kMatMul;
  mm.output_shape = TensorShape{8, 8};
  mm.flops = 100;
  mm.batch = 8;
  mm.channels = 8;
  const OpId id = g.AddOp(std::move(mm));
  const auto result = SplitOperation(g, id, SplitDim::kBatch, 2);
  EXPECT_EQ(result.concat_node, kInvalidOp);
  EXPECT_TRUE(result.split_nodes.empty());
  EXPECT_EQ(result.sub_ops.size(), 2u);
}

TEST(GlueCostKey, BucketsByPowerOfTwo) {
  EXPECT_EQ(GlueCostKey(OpType::kSplit, 1024),
            GlueCostKey(OpType::kSplit, 1024));
  EXPECT_EQ(GlueCostKey(OpType::kSplit, 513),
            GlueCostKey(OpType::kSplit, 1024));
  EXPECT_NE(GlueCostKey(OpType::kSplit, 1024),
            GlueCostKey(OpType::kSplit, 2048));
  EXPECT_NE(GlueCostKey(OpType::kSplit, 1024),
            GlueCostKey(OpType::kConcat, 1024));
}

class SplitSweep
    : public ::testing::TestWithParam<std::tuple<SplitDim, int>> {};

TEST_P(SplitSweep, GraphStaysValidAndFlopsConserved) {
  const auto [dim, n] = GetParam();
  SplitFixture f;
  if (!CanSplit(f.g, f.conv, dim, n)) GTEST_SKIP();
  const double before = f.g.TotalFlops();
  const auto result = SplitOperation(f.g, f.conv, dim, n);
  EXPECT_NO_THROW(f.g.Validate());
  EXPECT_EQ(static_cast<int>(result.sub_ops.size()), n);
  EXPECT_NEAR(f.g.TotalFlops(), before, 1e-6);
  EXPECT_TRUE(f.g.IsAcyclic());
}

INSTANTIATE_TEST_SUITE_P(
    AllDimsAndCounts, SplitSweep,
    ::testing::Combine(::testing::Values(SplitDim::kBatch,
                                         SplitDim::kChannel),
                       ::testing::Values(2, 3, 4, 8)));

// ---- Undo journal ------------------------------------------------------------
//
// Random edit sequences under nested marks must leave the graph equal to a
// copy taken at Mark() once undone.

// What Graph::Undo promises to restore, beyond the serialized text.
void ExpectSameGraph(const Graph& want, const Graph& got,
                     const std::set<std::string>& names) {
  ASSERT_EQ(SerializeGraph(got), SerializeGraph(want));
  ASSERT_EQ(got.num_slots(), want.num_slots());
  ASSERT_EQ(got.num_edge_slots(), want.num_edge_slots());
  EXPECT_EQ(got.num_live_ops(), want.num_live_ops());
  for (OpId id = 0; id < want.num_slots(); ++id) {
    ASSERT_EQ(got.in_edges(id), want.in_edges(id)) << want.op(id).name;
    ASSERT_EQ(got.out_edges(id), want.out_edges(id)) << want.op(id).name;
    ASSERT_EQ(got.op(id).dead, want.op(id).dead) << want.op(id).name;
    ASSERT_EQ(got.op(id).colocate_with, want.op(id).colocate_with)
        << want.op(id).name;
  }
  for (EdgeId e = 0; e < want.num_edge_slots(); ++e)
    ASSERT_EQ(got.edge(e).dead, want.edge(e).dead) << "edge " << e;
  for (const std::string& name : names)
    ASSERT_EQ(got.FindOp(name), want.FindOp(name)) << name;
}

// graph.h's invariant, which the scheduler's and rank_u's edge filters rely
// on: a live edge has two live endpoints.
void ExpectLiveEdgesHaveLiveEndpoints(const Graph& g) {
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.dead) continue;
    ASSERT_FALSE(g.op(edge.src).dead) << "edge " << e << " from dead op";
    ASSERT_FALSE(g.op(edge.dst).dead) << "edge " << e << " into dead op";
  }
}

// Ops some live op is colocated with.
std::set<OpId> ColocationAnchors(const Graph& g) {
  std::set<OpId> anchors;
  for (OpId id = 0; id < g.num_slots(); ++id)
    if (!g.op(id).dead && g.op(id).colocate_with != kInvalidOp)
      anchors.insert(g.op(id).colocate_with);
  return anchors;
}

class JournalFuzzer {
 public:
  JournalFuzzer(Graph& g, uint64_t seed) : g_(g), rng_(seed) {}

  // Marks, makes `edits` random edits (opening nested marks at depth <
  // max_depth), undoes, and checks the graph against the copy at Mark().
  // The live-edge invariant is checked after every edit, Commit and Undo.
  void MarkEditUndo(int edits, int depth, int max_depth) {
    const Graph at_mark = g_;
    const size_t mark = g_.Mark();
    for (int i = 0; i < edits; ++i) {
      if (::testing::Test::HasFatalFailure()) return;
      const uint64_t pick = rng_.NextBelow(10);
      if (pick < 5) {
        Split();
      } else if (pick < 6) {
        RemoveOp();
      } else if (pick < 7) {
        RemoveEdge();
      } else if (pick < 8) {
        Colocate();
      } else if (depth < max_depth) {
        if (rng_.NextBool(0.5)) {
          MarkEditUndo(edits / 2, depth + 1, max_depth);
        } else {
          // Committed edits stay journaled under this mark.
          const size_t inner = g_.Mark();
          for (int k = 0; k < 2; ++k) Split();
          g_.Commit(inner);
          ++commits_;
        }
      }
      ExpectLiveEdgesHaveLiveEndpoints(g_);
    }
    if (::testing::Test::HasFatalFailure()) return;
    std::set<std::string> names;
    for (const Graph* g : {&at_mark, static_cast<const Graph*>(&g_)})
      for (OpId id = 0; id < g->num_slots(); ++id)
        names.insert(g->op(id).name);
    g_.Undo(mark);
    ++undos_;
    ExpectLiveEdgesHaveLiveEndpoints(g_);
    ExpectSameGraph(at_mark, g_, names);
  }

  int splits() const { return splits_; }
  int anchor_splits() const { return anchor_splits_; }
  int resplits() const { return resplits_; }
  int undos() const { return undos_; }
  int commits() const { return commits_; }

 private:
  // Splits a random splittable op; half the time a colocation anchor or a
  // split-produced sub-op when there is a splittable one.
  void Split() {
    const std::set<OpId> anchors = ColocationAnchors(g_);
    std::vector<OpId> pool;
    if (rng_.NextBool(0.5)) {
      for (OpId id : anchors)
        if (Splittable(id)) pool.push_back(id);
      for (OpId id = 0; id < g_.num_slots(); ++id)
        if (g_.op(id).name.find("/part") != std::string::npos &&
            Splittable(id))
          pool.push_back(id);
    }
    if (pool.empty())
      for (OpId id = 0; id < g_.num_slots(); ++id)
        if (Splittable(id)) pool.push_back(id);
    if (pool.empty()) return;
    const OpId op = pool[rng_.NextBelow(pool.size())];
    std::vector<std::pair<SplitDim, int>> ways;
    for (SplitDim dim : {SplitDim::kBatch, SplitDim::kChannel})
      for (int n : {2, 3, 4})
        if (CanSplit(g_, op, dim, n)) ways.emplace_back(dim, n);
    const auto [dim, n] = ways[rng_.NextBelow(ways.size())];
    anchor_splits_ += anchors.count(op) > 0 ? 1 : 0;
    resplits_ +=
        g_.op(op).name.find("/part") != std::string::npos ? 1 : 0;
    SplitOperation(g_, op, dim, n);
    ++splits_;
  }

  bool Splittable(OpId id) const {
    for (SplitDim dim : {SplitDim::kBatch, SplitDim::kChannel})
      if (CanSplit(g_, id, dim, 2)) return true;
    return false;
  }

  OpId RandomLiveOp() {
    for (;;) {
      const OpId id = static_cast<OpId>(
          rng_.NextBelow(static_cast<uint64_t>(g_.num_slots())));
      if (!g_.op(id).dead) return id;
    }
  }

  void RemoveOp() { g_.RemoveOp(RandomLiveOp()); }

  void RemoveEdge() {
    g_.RemoveEdge(static_cast<EdgeId>(
        rng_.NextBelow(static_cast<uint64_t>(g_.num_edge_slots()))));
  }

  // Points a random live op at a random splittable op, making it an anchor.
  void Colocate() {
    const OpId target = RandomLiveOp();
    if (!Splittable(target)) return;
    const OpId follower = RandomLiveOp();
    if (follower != target) g_.SetColocateWith(follower, target);
  }

  Graph& g_;
  Rng rng_;
  int splits_ = 0;
  int anchor_splits_ = 0;
  int resplits_ = 0;
  int undos_ = 0;
  int commits_ = 0;
};

TEST(GraphJournal, UndoRestoresSmallZooGraphs) {
  int splits = 0, anchor_splits = 0, resplits = 0, undos = 0, commits = 0;
  for (const char* model : {"lenet", "alexnet", "rnnlm"}) {
    const ModelSpec& spec = FindModel(model);
    for (int replicas : {1, 2}) {
      DataParallelGraph dp = BuildDataParallel(spec.build, spec.name, 32,
                                               replicas, Scaling::kStrong);
      const Graph original = dp.graph;
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        JournalFuzzer fuzz(dp.graph, seed * 1000 + replicas);
        fuzz.MarkEditUndo(12, 0, 2);
        if (HasFatalFailure()) return;
        splits += fuzz.splits();
        anchor_splits += fuzz.anchor_splits();
        resplits += fuzz.resplits();
        undos += fuzz.undos();
        commits += fuzz.commits();
      }
      ExpectSameGraph(original, dp.graph, {});
    }
  }
  // The sweep reaches every case the journal has to get right.
  EXPECT_GT(splits, 100);
  EXPECT_GT(anchor_splits, 5);
  EXPECT_GT(resplits, 5);
  EXPECT_GT(undos, 40);
  EXPECT_GT(commits, 5);
}

TEST(GraphJournal, UndoRestoresBertLarge8WayDataParallelGraph) {
  const ModelSpec& spec = FindModel("bert_large");
  DataParallelGraph dp =
      BuildDataParallel(spec.build, spec.name, 16, 8, Scaling::kStrong);
  JournalFuzzer fuzz(dp.graph, 7);
  fuzz.MarkEditUndo(8, 0, 1);
  EXPECT_GT(fuzz.splits(), 2);
}

TEST(GraphJournal, CommitOutsideAnyMarkKeepsEditsAndClearsTheJournal) {
  SplitFixture f;
  const size_t mark = f.g.Mark();
  SplitOperation(f.g, f.conv, SplitDim::kBatch, 2);
  f.g.Commit(mark);
  const Graph committed = f.g;
  EXPECT_EQ(f.g.FindOp("conv"), kInvalidOp);
  // A later mark undoes only what follows it.
  const size_t next = f.g.Mark();
  f.g.RemoveOp(f.g.FindOp("conv/part0"));
  f.g.Undo(next);
  ExpectSameGraph(committed, f.g, {"conv", "conv/part0", "conv/part1"});
}

TEST(GraphJournal, MarksCloseInnermostFirst) {
  SplitFixture f;
  const size_t outer = f.g.Mark();
  const size_t inner = f.g.Mark();
  EXPECT_THROW(f.g.Undo(outer), std::logic_error);
  EXPECT_THROW(f.g.Commit(outer), std::logic_error);
  f.g.Undo(inner);
  f.g.Undo(outer);
}

}  // namespace
}  // namespace fastt
