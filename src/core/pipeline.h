// Micro-batch pipeline parallelism — the paper's §7/§8 extension.
//
// "After FastT obtains operation placement and execution order, it can
// further split a mini-batch into micro-batches and allow pipelined
// training in the similar fashion as proposed in GPipe."
//
// Construction: the mini-batch is split into M micro-batches, each built as
// a replica sharing the model's variables (exactly the shared-variable
// machinery of the data-parallel constructor); a stage cut balanced by
// profiled time assigns each *stage* to a device, and every micro-batch
// follows the same stage → device map. Because micro-batches are independent
// until gradient aggregation, the executor naturally overlaps micro-batch
// m's stage s with micro-batch m+1's stage s-1 — the GPipe schedule emerges
// from the dataflow. Synchronous semantics are preserved: all micro-batch
// gradients are aggregated before the single optimizer update.
//
// With M = |D| the pipeline graph *is* the shared-variable DP graph, so the
// stage map and the micro-batch-major order below also run on the graph
// FastT already searches: the calculator measures this pipeline as one of
// its start strategies.
#pragma once

#include "core/data_parallel.h"
#include "cost/comp_cost.h"
#include "sim/cluster.h"

namespace fastt {

struct PipelineGraph {
  Graph graph;
  int micro_batches = 0;
  int64_t global_batch = 0;
  // PipelinePlacement over all the cluster's devices, priced by the graph's
  // own bootstrap profile.
  std::vector<DeviceId> placement;
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

// A replica graph (replicas = micro-batches, as built by BuildDataParallel)
// cut into the segments a pipeline stage packs, each priced by a profile.
//
// Each forward, non-source op of micro-batch 0 is one segment. A segment
// carries the op, its backward ops (AnchorSourcesAndBackward's rule: a
// backward op goes with its weight's variable, otherwise with its forward
// predecessor), its variables with their colocated aggregation and update
// ops, and every other micro-batch's copy of those ops, matched by cost
// key — so every copy of an op lands on the same device. An op is priced at
// comp.MaxTimeOverDevices (rank_u's w term; the DP bootstrap profile ran the
// aggregation and update ops on one device only) and its MemNeed.
struct PipelineSegments {
  std::vector<OpId> order;          // MicroBatchMajorOrder(graph)
  std::vector<int32_t> segment_of;  // per slot, numbered in order; -1 if dead
  std::vector<double> time_s;       // per segment
  std::vector<int64_t> mem_bytes;   // per segment
};
PipelineSegments SegmentPipeline(const Graph& g, const Cluster& cluster,
                                 const CompCostModel& comp);

// The stage map: the segments split, in order, into at most num_devices
// contiguous stages, stage i on device i, minimizing the heaviest stage's
// time while each stage's memory stays within memory_headroom × the device's
// usable bytes. When no split meets that budget, the cut balances time
// alone. Indexed by slot, like segments.segment_of.
std::vector<DeviceId> PipelinePlacement(const PipelineSegments& segments,
                                        const Cluster& cluster,
                                        int32_t num_devices,
                                        double memory_headroom);

// Copies a stage map from one replica graph of a model to another of the
// same model at another micro-batch count: every slot of `to` goes to the
// device `placement` (indexed by the slots of `from`) gave its segment.
// SegmentPipeline numbers the segments by micro-batch 0's forward layers, so
// segment i is the same layer in both graphs; the two segment counts must
// match. A contiguous cut does not depend on the micro-batch count, so the
// copy needs no profile of `to`.
std::vector<DeviceId> CopyStageMap(const PipelineSegments& from,
                                   const std::vector<DeviceId>& placement,
                                   const PipelineSegments& to);

// Kahn topological sort that always pops the lowest ready slot id. Replica
// graphs are built micro-batch by micro-batch, so this runs micro-batch m's
// ops on a stage before micro-batch m+1's whenever both are ready.
std::vector<OpId> MicroBatchMajorOrder(const Graph& g);

// Builds the pipelined training graph for `micro_batches` micro-batches of
// `batch / micro_batches` samples each (batch must be >= micro_batches),
// profiles it the way RunFastT's bootstrap does (BootstrapProfile at the
// calculator's default options, with micro-batch m on device m mod |D|),
// and cuts its stages over all the cluster's devices. With M = |D| this is
// RunFastT's "pipeline" start at its default options.
PipelineGraph BuildPipeline(const ModelBuildFn& build,
                            const std::string& model_name, int64_t batch,
                            int micro_batches, const Cluster& cluster);

}  // namespace fastt
