// Strategy-verifier tests: every corrupted-strategy fixture must trip its
// named rule (and only error rules flip ok()), and — the property the
// verifier exists to defend — every strategy the real search emits across
// the model zoo must verify clean under the full rule set.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "core/data_parallel.h"
#include "core/os_dpos.h"
#include "graph/rewrite.h"
#include "models/model_zoo.h"
#include "obs/json.h"
#include "sim/cluster.h"
#include "sim/exec_sim.h"
#include "sim/profiler.h"

namespace fastt {
namespace {

Operation MathOp(const std::string& name, int64_t batch = 32) {
  Operation op;
  op.name = name;
  op.type = OpType::kMatMul;
  op.output_shape = TensorShape{batch, 64};
  op.flops = 1e6;
  op.batch = batch;
  op.channels = 64;
  return op;
}

// input -> w -> matmul -> loss on one chain; placement/order trivially valid.
struct Fixture {
  Graph graph{"fixture"};
  Strategy strategy;
  Cluster cluster = Cluster::SingleServer(2);
  OpId input, weights, matmul, loss;

  Fixture() {
    Operation in;
    in.name = "input";
    in.type = OpType::kInput;
    in.output_shape = TensorShape{32, 64};
    in.batch = 32;
    input = graph.AddOp(in);

    Operation w;
    w.name = "w";
    w.type = OpType::kVariable;
    w.output_shape = TensorShape{64, 64};
    w.param_bytes = 64 * 64 * 4;
    weights = graph.AddOp(w);

    matmul = graph.AddOp(MathOp("matmul"));
    loss = graph.AddOp(MathOp("loss"));
    graph.AddEdge(input, matmul);
    graph.AddEdge(weights, matmul);
    graph.AddEdge(matmul, loss);

    strategy.placement.assign(static_cast<size_t>(graph.num_slots()), 0);
    strategy.execution_order = graph.TopoOrder();
  }

  VerifyResult Verify(const VerifierOptions& options = {}) const {
    return VerifyStrategy(graph, strategy, cluster, nullptr, options);
  }
};

bool HasRule(const VerifyResult& result, const std::string& rule) {
  return std::any_of(result.diagnostics.begin(), result.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.rule_id == rule; });
}

TEST(Verifier, CleanFixtureVerifies) {
  Fixture f;
  const VerifyResult result = f.Verify();
  EXPECT_TRUE(result.ok()) << RenderDiagnostics(f.graph, result);
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.warnings, 0);
  // 14, not 15: comm.model is skipped when no comm model is supplied.
  EXPECT_EQ(result.rules_checked, 14);
  EXPECT_EQ(result.first_error_rule(), "");
}

TEST(Verifier, CheapOnlySkipsFullRules) {
  Fixture f;
  VerifierOptions options;
  options.cheap_only = true;
  const VerifyResult result = f.Verify(options);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.rules_checked, 12);
}

// Fixture 1: cycle via an inverted glue edge — concat wired back into the
// split node, exactly the failure a buggy SplitOperation rewrite produces.
TEST(Verifier, CycleViaInvertedGlueEdgeIsNamed) {
  Fixture f;
  const SplitResult split = SplitOperation(f.graph, f.matmul,
                                           SplitDim::kBatch, 2);
  f.graph.AddEdge(split.concat_node, split.split_nodes.front());
  f.strategy.placement.assign(static_cast<size_t>(f.graph.num_slots()), 0);
  // Order cannot be topological on a cyclic graph; keep the old one and
  // assert the acyclicity rule specifically.
  const VerifyResult result = f.Verify();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasRule(result, "graph.acyclic"))
      << RenderDiagnostics(f.graph, result);
}

// Fixture 2: a live op with no device.
TEST(Verifier, MissingPlacementIsNamed) {
  Fixture f;
  f.strategy.placement[static_cast<size_t>(f.matmul)] = kInvalidDevice;
  const VerifyResult result = f.Verify();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.first_error_rule(), "place.total");
}

// Fixture 2b: a placement naming a device the cluster does not have.
TEST(Verifier, InvalidDeviceIdIsNamed) {
  Fixture f;
  f.strategy.placement[static_cast<size_t>(f.loss)] = 7;
  const VerifyResult result = f.Verify();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.first_error_rule(), "place.device");
}

// Fixture 3: priority inversion — consumer ordered before its producer, the
// executor-deadlock precondition.
TEST(Verifier, PriorityInversionIsNamed) {
  Fixture f;
  std::vector<OpId>& order = f.strategy.execution_order;
  const auto producer = std::find(order.begin(), order.end(), f.matmul);
  const auto consumer = std::find(order.begin(), order.end(), f.loss);
  std::iter_swap(producer, consumer);
  const VerifyResult result = f.Verify();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasRule(result, "order.deps"))
      << RenderDiagnostics(f.graph, result);
}

TEST(Verifier, IncompleteOrderIsNamed) {
  Fixture f;
  f.strategy.execution_order.pop_back();
  const VerifyResult result = f.Verify();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasRule(result, "order.complete"));
}

TEST(Verifier, DuplicateOrderEntryIsNamed) {
  Fixture f;
  f.strategy.execution_order.push_back(f.strategy.execution_order.front());
  const VerifyResult result = f.Verify();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasRule(result, "order.complete"));
}

// Fixture 4: a placement whose static parameters alone exceed the device.
TEST(Verifier, OverMemoryPlacementIsNamed) {
  Fixture f;
  const int64_t usable = f.cluster.device(0).usable_bytes();
  f.graph.mutable_op(f.weights).param_bytes = usable + (int64_t{1} << 30);
  const VerifyResult result = f.Verify();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasRule(result, "mem.capacity"))
      << RenderDiagnostics(f.graph, result);
  // The cheap pass must NOT pay for the memory walk.
  VerifierOptions cheap;
  cheap.cheap_only = true;
  EXPECT_TRUE(f.Verify(cheap).ok());
}

TEST(Verifier, NearCapacityPlacementWarnsButPasses) {
  Fixture f;
  const int64_t usable = f.cluster.device(0).usable_bytes();
  f.graph.mutable_op(f.weights).param_bytes =
      static_cast<int64_t>(0.95 * static_cast<double>(usable));
  const VerifyResult result = f.Verify();
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.warnings, 1);
  EXPECT_TRUE(HasRule(result, "mem.headroom"));
}

// Fixture 5: dangling split node — the rewrite's fan-out edge got lost.
TEST(Verifier, DanglingSplitNodeIsNamed) {
  Fixture f;
  const SplitResult split = SplitOperation(f.graph, f.matmul,
                                           SplitDim::kBatch, 2);
  // Tombstone the split node's single producing edge.
  for (EdgeId e : f.graph.in_edges(split.split_nodes.front()))
    f.graph.RemoveEdge(e);
  f.strategy.placement.assign(static_cast<size_t>(f.graph.num_slots()), 0);
  f.strategy.execution_order = f.graph.TopoOrder();
  const VerifyResult result = f.Verify();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasRule(result, "graph.glue.split"))
      << RenderDiagnostics(f.graph, result);
}

TEST(Verifier, SplitDecisionNamingUnknownOpIsNamed) {
  Fixture f;
  SplitDecision decision;
  decision.op_name = "no_such_op";
  decision.dim = SplitDim::kBatch;
  decision.num_splits = 2;
  f.strategy.splits.push_back(decision);
  const VerifyResult result = f.Verify();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasRule(result, "strategy.split.op"));
}

TEST(Verifier, SubOpExtentMismatchIsNamed) {
  Fixture f;
  SplitOperation(f.graph, f.matmul, SplitDim::kBatch, 2);
  SplitDecision decision;
  decision.op_name = "matmul";
  decision.dim = SplitDim::kBatch;
  decision.num_splits = 2;
  f.strategy.splits.push_back(decision);
  f.strategy.placement.assign(static_cast<size_t>(f.graph.num_slots()), 0);
  f.strategy.execution_order = f.graph.TopoOrder();
  EXPECT_TRUE(f.Verify().ok());  // intact split verifies
  // Corrupt one sub-op's extent: parts no longer tile the parent batch.
  const OpId part = f.graph.FindOp("matmul/part0");
  ASSERT_NE(part, kInvalidOp);
  f.graph.mutable_op(part).batch += 5;
  const VerifyResult result = f.Verify();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasRule(result, "strategy.split.shape"))
      << RenderDiagnostics(f.graph, result);
}

TEST(Verifier, ColocationViolationIsNamed) {
  Fixture f;
  f.graph.mutable_op(f.matmul).colocate_with = f.weights;
  f.strategy.placement[static_cast<size_t>(f.matmul)] = 1;
  const VerifyResult result = f.Verify();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.first_error_rule(), "place.colocate");
}

TEST(Verifier, UnknownCommPairWarnsOnly) {
  Fixture f;
  // input -> matmul and w -> matmul both cross gpu0 -> gpu1; matmul -> loss
  // stays on gpu1.
  f.strategy.placement[static_cast<size_t>(f.matmul)] = 1;
  f.strategy.placement[static_cast<size_t>(f.loss)] = 1;
  CommCostModel comm;
  comm.AddSample(1, 0, 1 << 20, 1e-4);  // knows (1,0) but not (0,1)
  comm.AddSample(1, 0, 64 << 20, 2e-3);
  const VerifyResult result =
      VerifyStrategy(f.graph, f.strategy, f.cluster, &comm, {});
  EXPECT_TRUE(result.ok());
  // Two unpriced transfers make one finding for the strategy, not one each.
  EXPECT_EQ(result.warnings, 1) << RenderDiagnostics(f.graph, result);
  int comm_diags = 0;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.rule_id != "comm.model") continue;
    ++comm_diags;
    EXPECT_NE(d.message.find("2 transfers cross 1 device pair"),
              std::string::npos)
        << d.message;
    EXPECT_NE(d.message.find("gpu0 -> gpu1"), std::string::npos) << d.message;
    EXPECT_EQ(d.op, f.matmul);
    EXPECT_NE(d.edge, -1);
  }
  EXPECT_EQ(comm_diags, 1);
}

TEST(Verifier, PerRuleCapSummarizesSuppressedFindings) {
  Fixture f;
  VerifierOptions options;
  options.max_per_rule = 1;
  f.strategy.placement.assign(static_cast<size_t>(f.graph.num_slots()),
                              kInvalidDevice);
  const VerifyResult result = f.Verify(options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.errors, f.graph.num_live_ops());  // one per unplaced op
  int place_total_diags = 0;
  for (const Diagnostic& d : result.diagnostics)
    if (d.rule_id == "place.total") ++place_total_diags;
  EXPECT_EQ(place_total_diags, 2);  // 1 verbatim + 1 suppression summary
}

TEST(Verifier, RenderAndJsonAgreeOnCounts) {
  Fixture f;
  f.strategy.placement[static_cast<size_t>(f.matmul)] = kInvalidDevice;
  const VerifyResult result = f.Verify();
  const std::string text = RenderDiagnostics(f.graph, result);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("place.total"), std::string::npos);

  const std::string json = DiagnosticsToJson(f.graph, result);
  std::string error;
  ASSERT_TRUE(JsonValidate(json, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(JsonParse(json, &doc, &error)) << error;
  EXPECT_EQ(doc.Find("fastt_verify")->IntOr(0), 1);
  EXPECT_EQ(doc.Find("graph")->StringOr(""), "fixture");
  EXPECT_EQ(doc.Find("errors")->IntOr(-1), result.errors);
  EXPECT_EQ(doc.Find("ok")->kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(doc.Find("ok")->bool_v);
  const JsonValue* diags = doc.Find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_TRUE(diags->is_array());
  ASSERT_FALSE(diags->items.empty());
  const JsonValue& first = diags->items.front();
  EXPECT_EQ(first.Find("rule_id")->StringOr(""), "place.total");
  EXPECT_EQ(first.Find("severity")->StringOr(""), "error");
  EXPECT_EQ(first.Find("op_name")->StringOr(""), "matmul");
  EXPECT_FALSE(first.Find("fix_hint")->StringOr("").empty());
}

// The property the verifier defends: every strategy the real search emits —
// bootstrap profile, then OS-DPOS with its split rewrites — must verify
// clean under the FULL rule set, for every model in the zoo, on both a
// single-server and a two-server cluster.
TEST(VerifierProperty, EveryZooOsDposStrategyVerifiesClean) {
  const Cluster clusters[] = {Cluster::SingleServer(2),
                              Cluster::MultiServer(2, 2)};
  for (const Cluster& cluster : clusters) {
    for (const ModelSpec& spec : ModelZoo()) {
      DataParallelGraph dp =
          BuildDataParallel(spec.build, spec.name, spec.strong_batch,
                            cluster.num_devices(), Scaling::kStrong);
      const std::vector<DeviceId> placement =
          CanonicalDataParallelPlacement(dp);
      SimOptions so;
      so.noise_cv = 0.03;
      so.seed = 13;
      const RunProfile profile = ExtractProfile(
          dp.graph, Simulate(dp.graph, placement, cluster, so));
      CompCostModel comp;
      CommCostModel comm;
      comp.AddProfile(profile);
      comm.AddProfile(profile);

      OsDposResult os = OsDpos(dp.graph, cluster, comp, comm);
      Strategy strategy = os.schedule.strategy;
      strategy.splits = os.splits;
      const VerifyResult result =
          VerifyStrategy(os.graph, strategy, cluster, &comm, {});
      EXPECT_EQ(result.errors, 0)
          << spec.name << " on " << cluster.ToString() << ":\n"
          << RenderDiagnostics(os.graph, result);
    }
  }
}

}  // namespace
}  // namespace fastt
