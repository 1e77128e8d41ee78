// Micro-batch pipeline parallelism — the paper's §7/§8 extension.
//
// "After FastT obtains operation placement and execution order, it can
// further split a mini-batch into micro-batches and allow pipelined
// training in the similar fashion as proposed in GPipe."
//
// Construction: the mini-batch is split into M micro-batches, each built as
// a replica sharing the model's variables (exactly the shared-variable
// machinery of the data-parallel constructor); a layer-wise model-parallel
// cut assigns each *stage* to a device, and every micro-batch follows the
// same stage → device map. Because micro-batches are independent until
// gradient aggregation, the executor naturally overlaps micro-batch m's
// stage s with micro-batch m+1's stage s-1 — the GPipe schedule emerges
// from the dataflow. Synchronous semantics are preserved: all micro-batch
// gradients are aggregated before the single optimizer update.
//
// With M = |D| the pipeline graph *is* the shared-variable DP graph, so the
// stage map and the micro-batch-major order below also run on the graph
// FastT already searches: the calculator measures this pipeline as one of
// its start strategies.
#pragma once

#include "core/data_parallel.h"
#include "sim/cluster.h"

namespace fastt {

struct PipelineGraph {
  Graph graph;
  int micro_batches = 0;
  int64_t global_batch = 0;
  std::vector<DeviceId> placement;  // PipelinePlacement(graph, cluster)
  // Depth-first (micro-batch-major) execution priorities,
  // PrioritiesFromOrder(MicroBatchMajorOrder(graph)). Without order
  // enforcement the default executor advances all micro-batches in
  // lockstep — every micro-batch reaches the stage boundary simultaneously
  // and the pipeline degenerates to serial execution. Running each
  // micro-batch through its stage before admitting the next (exactly the
  // ordering FastT's priority enforcement expresses) produces the GPipe
  // schedule. Use with DispatchMode::kPriority.
  std::vector<int64_t> priorities;
};

// The stage map of a replica graph (replicas = micro-batches, as built by
// BuildDataParallel): micro-batch 0's layer-wise model-parallel cut, keyed
// by cost key, so every micro-batch's copy of an op lands on the same
// device. The cut also pins the shared variables, which live in replica
// 0's slice. Colocation constraints win over the stage map.
std::vector<DeviceId> PipelinePlacement(const Graph& g,
                                        const Cluster& cluster);

// Kahn topological sort that always pops the lowest ready slot id. Replica
// graphs are built micro-batch by micro-batch, so this runs micro-batch m's
// ops on a stage before micro-batch m+1's whenever both are ready.
std::vector<OpId> MicroBatchMajorOrder(const Graph& g);

// Builds the pipelined training graph for `micro_batches` micro-batches of
// `batch / micro_batches` samples each (batch must be >= micro_batches) and
// assigns stages over the cluster's devices.
PipelineGraph BuildPipeline(const ModelBuildFn& build,
                            const std::string& model_name, int64_t batch,
                            int micro_batches, const Cluster& cluster);

}  // namespace fastt
