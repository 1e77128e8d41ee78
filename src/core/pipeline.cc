#include "core/pipeline.h"

#include <functional>
#include <queue>
#include <string_view>
#include <unordered_map>

#include "core/model_parallel.h"
#include "util/check.h"

namespace fastt {

std::vector<DeviceId> PipelinePlacement(const Graph& g,
                                        const Cluster& cluster) {
  // Stage map from micro-batch 0's layer-wise cut: cost key → device. The
  // keys view the ops' own strings; `g` is not modified while they live.
  const std::vector<DeviceId> reference =
      GreedyModelParallelPlacement(g, cluster);
  std::unordered_map<std::string_view, DeviceId> stage_of;
  for (OpId id : g.LiveOps())
    stage_of.try_emplace(g.op(id).CostKey(),
                         reference[static_cast<size_t>(id)]);

  std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()), 0);
  for (OpId id : g.LiveOps())
    placement[static_cast<size_t>(id)] = stage_of.at(g.op(id).CostKey());
  for (OpId id : g.TopoOrder()) {
    const OpId target = g.op(id).colocate_with;
    if (target != kInvalidOp && !g.op(target).dead)
      placement[static_cast<size_t>(id)] =
          placement[static_cast<size_t>(target)];
  }
  return placement;
}

std::vector<OpId> MicroBatchMajorOrder(const Graph& g) {
  std::vector<int32_t> in_degree(static_cast<size_t>(g.num_slots()), 0);
  std::priority_queue<OpId, std::vector<OpId>, std::greater<OpId>> ready;
  for (OpId id : g.LiveOps()) {
    for (EdgeId e : g.in_edges(id)) {
      const Edge& edge = g.edge(e);
      if (!edge.dead && !g.op(edge.src).dead)
        ++in_degree[static_cast<size_t>(id)];
    }
    if (in_degree[static_cast<size_t>(id)] == 0) ready.push(id);
  }
  std::vector<OpId> order;
  order.reserve(static_cast<size_t>(g.num_live_ops()));
  while (!ready.empty()) {
    const OpId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (EdgeId e : g.out_edges(id)) {
      const Edge& edge = g.edge(e);
      if (edge.dead || g.op(edge.dst).dead) continue;
      if (--in_degree[static_cast<size_t>(edge.dst)] == 0)
        ready.push(edge.dst);
    }
  }
  FASTT_CHECK_MSG(order.size() == static_cast<size_t>(g.num_live_ops()),
                  "graph contains a cycle");
  return order;
}

PipelineGraph BuildPipeline(const ModelBuildFn& build,
                            const std::string& model_name, int64_t batch,
                            int micro_batches, const Cluster& cluster) {
  FASTT_CHECK(micro_batches >= 1);
  FASTT_CHECK_MSG(batch >= micro_batches,
                  "batch must cover every micro-batch");

  // Micro-batches are replicas with shared variables and one optimizer
  // update fed by the aggregated micro-batch gradients — exactly the
  // shared-variable data-parallel construction, re-placed stage-wise.
  DataParallelGraph dp = BuildDataParallel(build, model_name, batch,
                                           micro_batches, Scaling::kStrong);
  PipelineGraph pipeline;
  pipeline.micro_batches = micro_batches;
  pipeline.global_batch = dp.global_batch;
  pipeline.placement = PipelinePlacement(dp.graph, cluster);
  pipeline.priorities = PrioritiesFromOrder(MicroBatchMajorOrder(dp.graph),
                                            dp.graph.num_slots());
  pipeline.graph = std::move(dp.graph);
  return pipeline;
}

}  // namespace fastt
