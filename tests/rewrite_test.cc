#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <span>
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

// ---- Undo journal and shared copies ----------------------------------------
//
// Random edit sequences under nested marks must leave the graph equal to a
// copy taken at Mark() once undone. Copies taken along the way, inside and
// outside open marks, share storage with the graph they were copied from and
// are edited in between, so every graph is also checked, after every step,
// against a reference that shares nothing with it: rebuilt from the model
// and given the same edits.

std::vector<EdgeId> Ids(std::span<const EdgeId> list) {
  return {list.begin(), list.end()};
}

// What Graph::Undo promises to restore, beyond the serialized text
// (`want_text`, SerializeGraph(want)).
void ExpectSameGraph(const Graph& want, const std::string& want_text,
                     const Graph& got, const std::set<std::string>& names) {
  ASSERT_EQ(SerializeGraph(got), want_text);
  ASSERT_EQ(got.num_slots(), want.num_slots());
  ASSERT_EQ(got.num_edge_slots(), want.num_edge_slots());
  EXPECT_EQ(got.num_live_ops(), want.num_live_ops());
  for (OpId id = 0; id < want.num_slots(); ++id) {
    ASSERT_EQ(Ids(got.in_edges(id)), Ids(want.in_edges(id)))
        << want.op(id).name;
    ASSERT_EQ(Ids(got.out_edges(id)), Ids(want.out_edges(id)))
        << want.op(id).name;
    ASSERT_EQ(got.op(id).dead, want.op(id).dead) << want.op(id).name;
    ASSERT_EQ(got.op(id).colocate_with, want.op(id).colocate_with)
        << want.op(id).name;
  }
  for (EdgeId e = 0; e < want.num_edge_slots(); ++e)
    ASSERT_EQ(got.edge(e).dead, want.edge(e).dead) << "edge " << e;
  for (const std::string& name : names)
    ASSERT_EQ(got.FindOp(name), want.FindOp(name)) << name;
}

void ExpectSameGraph(const Graph& want, const Graph& got,
                     const std::set<std::string>& names) {
  ExpectSameGraph(want, SerializeGraph(want), got, names);
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

// One edit, replayable on any graph in the same state.
struct Edit {
  enum class Kind {
    kSplit, kRemoveOp, kRemoveEdge, kColocate, kMark, kUndo, kCommit
  };
  Kind kind = Kind::kMark;
  int32_t a = 0;  // op, edge, or the mark Undo/Commit closes
  int32_t b = 0;  // colocation target
  SplitDim dim = SplitDim::kNone;
  int n = 0;
};

void Apply(Graph& g, const Edit& e) {
  switch (e.kind) {
    case Edit::Kind::kSplit:
      SplitOperation(g, e.a, e.dim, e.n);
      break;
    case Edit::Kind::kRemoveOp:
      g.RemoveOp(e.a);
      break;
    case Edit::Kind::kRemoveEdge:
      g.RemoveEdge(e.a);
      break;
    case Edit::Kind::kColocate:
      g.SetColocateWith(e.a, e.b);
      break;
    case Edit::Kind::kMark:
      ASSERT_EQ(g.Mark(), static_cast<size_t>(e.a));
      break;
    case Edit::Kind::kUndo:
      g.Undo(static_cast<size_t>(e.a));
      break;
    case Edit::Kind::kCommit:
      g.Commit(static_cast<size_t>(e.a));
      break;
  }
}

// A graph under test, every edit made to it since it was built, and its
// reference: built from scratch and given the same edits, never copied.
struct Tracked {
  Graph graph;
  Graph ref;
  std::string ref_text;  // SerializeGraph(ref), kept current
  std::vector<Edit> log;
  int32_t open_marks = 0;
};

class JournalFuzzer {
 public:
  // `build` makes the fresh graph every reference starts from.
  JournalFuzzer(std::function<Graph()> build, uint64_t seed, size_t max_copies)
      : build_(std::move(build)), rng_(seed), max_copies_(max_copies) {
    root_.graph = build_();
    root_.ref = build_();
    root_.ref_text = SerializeGraph(root_.ref);
    AddNames(root_.graph, 0);
  }

  const Graph& graph() const { return root_.graph; }

  // Marks, makes `edits` random steps (opening nested marks at depth <
  // max_depth), undoes, and checks the graph against the copy at Mark().
  // A step edits the graph or one of the live copies, takes a copy of
  // either, or marks, undoes or commits on a copy; after each, every graph
  // is checked against its reference and for the live-edge invariant.
  void MarkEditUndo(int edits, int depth, int max_depth) {
    if (depth == 0 && max_copies_ > 0) TakeCopy(root_);
    const Graph at_mark = root_.graph;
    const int32_t mark = root_.open_marks;
    Do(root_, {Edit::Kind::kMark, mark});
    for (int i = 0; i < edits; ++i) {
      if (::testing::Test::HasFatalFailure()) return;
      const uint64_t pick = rng_.NextBelow(12);
      if (pick < 8) {
        Tracked& t = PickGraph();
        if (&t != &root_) ++copy_edits_;
        RandomEdit(t, pick);
      } else if (pick < 9) {
        if (max_copies_ > 0) TakeCopy(PickGraph());
      } else if (pick < 10) {
        if (!copies_.empty())
          MarkOrClose(*copies_[rng_.NextBelow(copies_.size())]);
      } else if (depth < max_depth) {
        if (rng_.NextBool(0.5)) {
          MarkEditUndo(edits / 2, depth + 1, max_depth);
        } else {
          // Committed edits stay journaled under this mark.
          const int32_t inner = root_.open_marks;
          Do(root_, {Edit::Kind::kMark, inner});
          for (int k = 0; k < 2; ++k) Split(root_);
          Do(root_, {Edit::Kind::kCommit, inner});
          ++commits_;
        }
      }
      CheckAll();
    }
    if (::testing::Test::HasFatalFailure()) return;
    Do(root_, {Edit::Kind::kUndo, mark});
    ++undos_;
    CheckAll();
    ExpectSameGraph(at_mark, root_.graph, names_);
  }

  int splits() const { return splits_; }
  int anchor_splits() const { return anchor_splits_; }
  int resplits() const { return resplits_; }
  int undos() const { return undos_; }
  int commits() const { return commits_; }
  int copies_in_marks() const { return copies_in_marks_; }
  int copies_outside_marks() const { return copies_outside_marks_; }
  int copy_edits() const { return copy_edits_; }
  int copy_undos() const { return copy_undos_; }

 private:
  void Do(Tracked& t, const Edit& e) {
    const OpId slots = t.graph.num_slots();
    Apply(t.graph, e);
    Apply(t.ref, e);
    if (e.kind != Edit::Kind::kMark && e.kind != Edit::Kind::kCommit)
      t.ref_text = SerializeGraph(t.ref);
    t.log.push_back(e);
    if (e.kind == Edit::Kind::kMark) ++t.open_marks;
    if (e.kind == Edit::Kind::kUndo || e.kind == Edit::Kind::kCommit)
      --t.open_marks;
    AddNames(t.graph, slots);
  }

  void AddNames(const Graph& g, OpId from) {
    for (OpId id = from; id < g.num_slots(); ++id) names_.insert(g.op(id).name);
  }

  // Every graph against its reference, FindOp over every name any slot of
  // any graph had (so undone ops must be gone from the index too).
  void CheckAll() {
    for (const Tracked* t : Graphs()) {
      ExpectLiveEdgesHaveLiveEndpoints(t->graph);
      ExpectSameGraph(t->ref, t->ref_text, t->graph, names_);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  std::vector<Tracked*> Graphs() {
    std::vector<Tracked*> all = {&root_};
    for (auto& c : copies_) all.push_back(c.get());
    return all;
  }

  Tracked& PickGraph() {
    const std::vector<Tracked*> all = Graphs();
    return *all[rng_.NextBelow(all.size())];
  }

  // Copies `from` (sharing its storage, open marks and journal); its
  // reference is rebuilt and replays `from`'s edits. Past max_copies_ a
  // random older copy is dropped.
  void TakeCopy(const Tracked& from) {
    auto copy = std::make_unique<Tracked>();
    copy->graph = from.graph;
    copy->log = from.log;
    copy->open_marks = from.open_marks;
    copy->ref = build_();
    for (const Edit& e : copy->log) Apply(copy->ref, e);
    copy->ref_text = SerializeGraph(copy->ref);
    (from.open_marks > 0 ? copies_in_marks_ : copies_outside_marks_)++;
    if (copies_.size() == max_copies_)
      copies_.erase(copies_.begin() +
                    static_cast<std::ptrdiff_t>(rng_.NextBelow(max_copies_)));
    copies_.push_back(std::move(copy));
  }

  // On a copy: undoes or commits its innermost mark (one it may have
  // inherited from the graph it was copied from), or opens a new one.
  void MarkOrClose(Tracked& t) {
    if (t.open_marks > 0 && (t.open_marks >= 4 || rng_.NextBool(0.6))) {
      const bool undo = rng_.NextBool(0.7);
      Do(t, {undo ? Edit::Kind::kUndo : Edit::Kind::kCommit,
             t.open_marks - 1});
      copy_undos_ += undo ? 1 : 0;
    } else {
      Do(t, {Edit::Kind::kMark, t.open_marks});
    }
  }

  void RandomEdit(Tracked& t, uint64_t pick) {
    if (pick < 5) {
      Split(t);
    } else if (pick < 6) {
      Do(t, {Edit::Kind::kRemoveOp, RandomLiveOp(t.graph)});
    } else if (pick < 7) {
      Do(t, {Edit::Kind::kRemoveEdge,
             static_cast<EdgeId>(rng_.NextBelow(
                 static_cast<uint64_t>(t.graph.num_edge_slots())))});
    } else {
      Colocate(t);
    }
  }

  // Splits a random splittable op; half the time a colocation anchor or a
  // split-produced sub-op when there is a splittable one.
  void Split(Tracked& t) {
    const Graph& g = t.graph;
    const std::set<OpId> anchors = ColocationAnchors(g);
    std::vector<OpId> pool;
    if (rng_.NextBool(0.5)) {
      for (OpId id : anchors)
        if (Splittable(g, id)) pool.push_back(id);
      for (OpId id = 0; id < g.num_slots(); ++id)
        if (g.op(id).name.find("/part") != std::string::npos &&
            Splittable(g, id))
          pool.push_back(id);
    }
    if (pool.empty())
      for (OpId id = 0; id < g.num_slots(); ++id)
        if (Splittable(g, id)) pool.push_back(id);
    if (pool.empty()) return;
    const OpId op = pool[rng_.NextBelow(pool.size())];
    std::vector<std::pair<SplitDim, int>> ways;
    for (SplitDim dim : {SplitDim::kBatch, SplitDim::kChannel})
      for (int n : {2, 3, 4})
        if (CanSplit(g, op, dim, n)) ways.emplace_back(dim, n);
    const auto [dim, n] = ways[rng_.NextBelow(ways.size())];
    anchor_splits_ += anchors.count(op) > 0 ? 1 : 0;
    resplits_ += g.op(op).name.find("/part") != std::string::npos ? 1 : 0;
    Do(t, {Edit::Kind::kSplit, op, 0, dim, n});
    ++splits_;
  }

  static bool Splittable(const Graph& g, OpId id) {
    for (SplitDim dim : {SplitDim::kBatch, SplitDim::kChannel})
      if (CanSplit(g, id, dim, 2)) return true;
    return false;
  }

  OpId RandomLiveOp(const Graph& g) {
    for (;;) {
      const OpId id = static_cast<OpId>(
          rng_.NextBelow(static_cast<uint64_t>(g.num_slots())));
      if (!g.op(id).dead) return id;
    }
  }

  // Points a random live op at a random splittable op, making it an anchor.
  void Colocate(Tracked& t) {
    const OpId target = RandomLiveOp(t.graph);
    if (!Splittable(t.graph, target)) return;
    const OpId follower = RandomLiveOp(t.graph);
    if (follower != target) Do(t, {Edit::Kind::kColocate, follower, target});
  }

  std::function<Graph()> build_;
  Rng rng_;
  size_t max_copies_;
  Tracked root_;
  std::vector<std::unique_ptr<Tracked>> copies_;
  std::set<std::string> names_;
  int splits_ = 0;
  int anchor_splits_ = 0;
  int resplits_ = 0;
  int undos_ = 0;
  int commits_ = 0;
  int copies_in_marks_ = 0;
  int copies_outside_marks_ = 0;
  int copy_edits_ = 0;
  int copy_undos_ = 0;
};

std::function<Graph()> DataParallelBuild(const char* model, int64_t batch,
                                         int replicas) {
  return [model, batch, replicas] {
    const ModelSpec& spec = FindModel(model);
    return BuildDataParallel(spec.build, spec.name, batch, replicas,
                             Scaling::kStrong)
        .graph;
  };
}

TEST(GraphJournal, UndoRestoresSmallZooGraphs) {
  int splits = 0, anchor_splits = 0, resplits = 0, undos = 0, commits = 0;
  int copies_in_marks = 0, copies_outside_marks = 0, copy_edits = 0,
      copy_undos = 0, multi_chunk = 0;
  for (const char* model : {"lenet", "alexnet", "rnnlm"}) {
    for (int replicas : {1, 2}) {
      const auto build = DataParallelBuild(model, 32, replicas);
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        JournalFuzzer fuzz(build, seed * 1000 + replicas, 3);
        const auto slots = static_cast<uint32_t>(fuzz.graph().num_slots());
        multi_chunk += slots > Graph::kChunkSlots ? 1 : 0;
        fuzz.MarkEditUndo(12, 0, 2);
        if (HasFatalFailure()) return;
        ExpectSameGraph(build(), fuzz.graph(), {});
        splits += fuzz.splits();
        anchor_splits += fuzz.anchor_splits();
        resplits += fuzz.resplits();
        undos += fuzz.undos();
        commits += fuzz.commits();
        copies_in_marks += fuzz.copies_in_marks();
        copies_outside_marks += fuzz.copies_outside_marks();
        copy_edits += fuzz.copy_edits();
        copy_undos += fuzz.copy_undos();
      }
    }
  }
  // The sweep reaches every case the journal and the shared storage have to
  // get right.
  EXPECT_GT(splits, 100);
  EXPECT_GT(anchor_splits, 5);
  EXPECT_GT(resplits, 5);
  EXPECT_GT(undos, 40);
  EXPECT_GT(commits, 5);
  EXPECT_GT(copies_in_marks, 20);
  EXPECT_GT(copies_outside_marks, 20);
  EXPECT_GT(copy_edits, 100);
  EXPECT_GT(copy_undos, 5);
  EXPECT_GT(multi_chunk, 5);
}

TEST(GraphJournal, UndoRestoresBertLarge8WayDataParallelGraph) {
  JournalFuzzer fuzz(DataParallelBuild("bert_large", 16, 8), 7, 1);
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
