#include "core/data_parallel.h"

#include <map>

#include "graph/rewrite.h"
#include "util/check.h"
#include "util/strings.h"

namespace fastt {

DataParallelGraph BuildDataParallel(const ModelBuildFn& build,
                                    const std::string& model_name,
                                    int64_t batch, int replicas,
                                    Scaling scaling) {
  FASTT_CHECK(replicas >= 1);
  if (scaling == Scaling::kStrong)
    FASTT_CHECK_MSG(batch >= replicas,
                    "strong scaling needs batch >= replicas");

  DataParallelGraph dp;
  dp.replicas = replicas;
  dp.graph.set_name(StrFormat("%s_dp%d", model_name.c_str(), replicas));

  for (int r = 0; r < replicas; ++r) {
    int64_t replica_batch = batch;
    if (scaling == Scaling::kStrong) {
      replica_batch = batch / replicas + (r < batch % replicas ? 1 : 0);
    }
    dp.global_batch += replica_batch;
    const int32_t before = dp.graph.num_slots();
    build(dp.graph, replicas == 1 ? "" : StrFormat("rep%d", r),
          replica_batch);
    dp.replica_of.resize(static_cast<size_t>(dp.graph.num_slots()), r);
    FASTT_CHECK(dp.graph.num_slots() > before);
  }

  // ---- shared variables + gradient aggregation ------------------------------
  // TF-slim in-graph replication shares one variable per parameter across all
  // towers: each tower reads the weights over an edge from the shared
  // variable (the weight broadcast) and one optimizer update per parameter
  // consumes the aggregated gradient.
  if (replicas > 1) {
    // 1. Merge replica variables: keep replica 0's, rewire all consumers.
    std::map<std::string, std::vector<OpId>> var_groups;
    for (OpId id : dp.graph.LiveOps()) {
      const Operation& op = dp.graph.op(id);
      if (op.type == OpType::kVariable)
        var_groups[op.CostKey()].push_back(id);
    }
    std::map<OpId, OpId> merged_into;
    for (const auto& [key, vars] : var_groups) {
      if (vars.size() < 2) continue;
      const OpId canonical = vars.front();
      for (size_t i = 1; i < vars.size(); ++i) {
        const OpId victim = vars[i];
        // Snapshot: AddEdge may move the graph's edge lists.
        const std::vector<EdgeId> outs(dp.graph.out_edges(victim).begin(),
                                       dp.graph.out_edges(victim).end());
        for (EdgeId e : outs) {
          const Edge& edge = dp.graph.edge(e);
          if (edge.dead) continue;
          dp.graph.AddEdge(canonical, edge.dst, edge.bytes);
        }
        merged_into[victim] = canonical;
        dp.graph.RemoveOp(victim);
      }
    }
    // Colocation constraints that pointed at merged-away variables follow
    // the canonical variable.
    for (OpId id : dp.graph.LiveOps()) {
      const OpId target = dp.graph.op(id).colocate_with;
      auto it = merged_into.find(target);
      if (it != merged_into.end())
        dp.graph.mutable_op(id).colocate_with = it->second;
    }

    // 2. One optimizer update per parameter: keep replica 0's apply; feed it
    //    the aggregated gradient of all towers.
    std::map<std::string, std::vector<OpId>> apply_groups;
    for (OpId id : dp.graph.LiveOps()) {
      const Operation& op = dp.graph.op(id);
      if (op.type == OpType::kApplyGradient)
        apply_groups[op.CostKey()].push_back(id);
    }
    for (const auto& [key, applies] : apply_groups) {
      if (applies.size() < 2) continue;
      std::vector<OpId> wgrads;
      int64_t grad_bytes = 0;
      for (OpId apply : applies) {
        for (EdgeId e : dp.graph.in_edges(apply)) {
          const Edge& edge = dp.graph.edge(e);
          if (edge.dead) continue;
          wgrads.push_back(edge.src);
          grad_bytes = edge.bytes;
          dp.graph.RemoveEdge(e);
        }
      }
      const OpId kept_apply = applies.front();
      for (size_t i = 1; i < applies.size(); ++i)
        dp.graph.RemoveOp(applies[i]);

      Operation agg;
      agg.name = "agg/" + key;
      agg.type = OpType::kGradAggregate;
      agg.output_shape = TensorShape{grad_bytes / 4};
      agg.bytes_touched =
          static_cast<int64_t>(wgrads.size() + 1) * grad_bytes;
      agg.cost_key = GlueCostKey(OpType::kGradAggregate, grad_bytes);
      agg.is_backward = true;
      // The sum runs where the variable (and its update) live.
      agg.colocate_with = dp.graph.op(kept_apply).colocate_with;
      const OpId agg_id = dp.graph.AddOp(std::move(agg));
      dp.replica_of.resize(static_cast<size_t>(dp.graph.num_slots()), 0);
      for (OpId wg : wgrads) dp.graph.AddEdge(wg, agg_id, grad_bytes);
      dp.graph.AddEdge(agg_id, kept_apply, grad_bytes);
    }
  }

  dp.graph.Validate();
  return dp;
}

std::vector<DeviceId> CanonicalDataParallelPlacement(
    const DataParallelGraph& dp) {
  std::vector<DeviceId> placement(
      static_cast<size_t>(dp.graph.num_slots()), kInvalidDevice);
  for (OpId id : dp.graph.LiveOps())
    placement[static_cast<size_t>(id)] =
        static_cast<DeviceId>(dp.replica_of[static_cast<size_t>(id)]);
  return placement;
}

}  // namespace fastt
