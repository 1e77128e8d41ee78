#include "core/pipeline.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <string_view>
#include <unordered_map>

#include "core/model_parallel.h"
#include "core/strategy_calculator.h"
#include "graph/memory.h"
#include "util/check.h"

namespace fastt {
namespace {

// Fills the segments, in order, into stages of at most `cap` seconds and
// budget[stage] bytes each. Writes each segment's stage into *stage_of when
// given. False when more than budget.size() stages would be needed, or when
// one segment alone outweighs the cap or its stage's budget.
bool FillStages(const std::vector<double>& time,
                const std::vector<int64_t>& mem, double cap,
                const std::vector<int64_t>& budget,
                std::vector<int32_t>* stage_of) {
  size_t stage = 0;
  double t = 0.0;
  int64_t m = 0;
  for (size_t s = 0; s < time.size(); ++s) {
    if (t + time[s] > cap || m + mem[s] > budget[stage]) {
      if (++stage == budget.size()) return false;
      t = 0.0;
      m = 0;
      if (time[s] > cap || mem[s] > budget[stage]) return false;
    }
    t += time[s];
    m += mem[s];
    if (stage_of) (*stage_of)[s] = static_cast<int32_t>(stage);
  }
  return true;
}

}  // namespace

PipelineSegments SegmentPipeline(const Graph& g, const Cluster& cluster,
                                 const CompCostModel& comp) {
  PipelineSegments out;
  // Micro-batch-major order emits micro-batch 0 as its builder did, layer by
  // layer, so a stage holds whole layers; a FIFO topological order would
  // walk an unrolled recurrent stack by anti-diagonals (layer l's step t at
  // depth l + t) and cut every layer, spreading its weights over stages.
  out.order = MicroBatchMajorOrder(g);
  const std::vector<OpId>& order = out.order;
  const size_t slots = static_cast<size_t>(g.num_slots());

  // Micro-batch 0's copy of an op is the lowest slot with its cost key:
  // BuildDataParallel builds the micro-batches in order. The keys view the
  // ops' own strings; `g` is not modified while they live.
  std::vector<OpId> rep(slots, kInvalidOp);
  {
    std::unordered_map<std::string_view, OpId> first;
    for (OpId id = 0; id < g.num_slots(); ++id)
      if (!g.op(id).dead)
        rep[static_cast<size_t>(id)] =
            first.try_emplace(g.op(id).CostKey(), id).first->second;
  }
  auto is_layer = [&](const Operation& op) {
    return !op.is_backward && op.type != OpType::kVariable &&
           op.type != OpType::kInput && op.colocate_with == kInvalidOp;
  };

  std::vector<int32_t>& seg = out.segment_of;
  seg.assign(slots, -1);
  int32_t count = 0;
  for (OpId id : order)
    if (is_layer(g.op(id)) && rep[static_cast<size_t>(id)] == id)
      seg[static_cast<size_t>(id)] = count++;
  // Every other micro-batch's forward copy follows micro-batch 0's before the
  // variables look for their first consumer.
  for (OpId id : order)
    if (is_layer(g.op(id)))
      seg[static_cast<size_t>(id)] =
          seg[static_cast<size_t>(rep[static_cast<size_t>(id)])];
  AnchorSourcesAndBackward(g, order, seg);
  // Every other micro-batch's backward copy goes with micro-batch 0's, too:
  // the merged variables can reorder one micro-batch's inputs, and with them
  // the anchoring rule's choice. Colocated ops stay with their targets.
  for (OpId id : order) {
    const OpId target = g.op(id).colocate_with;
    const OpId with =
        target != kInvalidOp && seg[static_cast<size_t>(target)] >= 0
            ? target
            : rep[static_cast<size_t>(id)];
    seg[static_cast<size_t>(id)] = seg[static_cast<size_t>(with)];
  }

  out.time_s.assign(static_cast<size_t>(count), 0.0);
  out.mem_bytes.assign(static_cast<size_t>(count), 0);
  for (OpId id : order) {
    const size_t s = static_cast<size_t>(seg[static_cast<size_t>(id)]);
    out.time_s[s] += comp.MaxTimeOverDevices(g.op(id), cluster.num_devices());
    out.mem_bytes[s] += MemNeed(g, id);
  }
  return out;
}

std::vector<DeviceId> PipelinePlacement(const PipelineSegments& segments,
                                        const Cluster& cluster,
                                        int32_t num_devices,
                                        double memory_headroom) {
  FASTT_CHECK(num_devices >= 1 && num_devices <= cluster.num_devices());
  const std::vector<double>& time = segments.time_s;
  const std::vector<int64_t>& mem = segments.mem_bytes;
  std::vector<DeviceId> placement(segments.segment_of.size(), 0);
  if (time.empty()) return placement;

  std::vector<int64_t> budget(static_cast<size_t>(num_devices));
  for (DeviceId d = 0; d < num_devices; ++d)
    budget[static_cast<size_t>(d)] = static_cast<int64_t>(
        memory_headroom *
        static_cast<double>(cluster.device(d).usable_bytes()));
  if (!FillStages(time, mem, std::numeric_limits<double>::infinity(), budget,
                  nullptr))
    budget.assign(budget.size(), std::numeric_limits<int64_t>::max());

  // Bisect the cap on the heaviest stage. Feasibility is monotone in the cap,
  // and the greedy fill needs the fewest stages for a given cap.
  double total = 0.0;
  double heaviest = 0.0;
  for (double t : time) {
    total += t;
    heaviest = std::max(heaviest, t);
  }
  double lo = std::max(heaviest, total / num_devices);
  double hi = total;
  while (!FillStages(time, mem, hi, budget, nullptr)) hi *= 2.0;
  for (;;) {
    const double mid = lo + (hi - lo) / 2.0;
    if (mid <= lo || mid >= hi) break;
    (FillStages(time, mem, mid, budget, nullptr) ? hi : lo) = mid;
  }
  std::vector<int32_t> stage_of(time.size(), 0);
  FillStages(time, mem, hi, budget, &stage_of);

  for (size_t id = 0; id < placement.size(); ++id)
    if (const int32_t s = segments.segment_of[id]; s >= 0)
      placement[id] = stage_of[static_cast<size_t>(s)];
  return placement;
}

std::vector<DeviceId> CopyStageMap(const PipelineSegments& from,
                                   const std::vector<DeviceId>& placement,
                                   const PipelineSegments& to) {
  FASTT_CHECK_MSG(from.time_s.size() == to.time_s.size(),
                  "the two graphs must have the same segments");
  std::vector<DeviceId> device_of(from.time_s.size(), kInvalidDevice);
  for (size_t id = 0; id < from.segment_of.size(); ++id)
    if (const int32_t s = from.segment_of[id]; s >= 0)
      device_of[static_cast<size_t>(s)] = placement[id];
  std::vector<DeviceId> out(to.segment_of.size(), 0);
  for (size_t id = 0; id < out.size(); ++id)
    if (const int32_t s = to.segment_of[id]; s >= 0)
      out[id] = device_of[static_cast<size_t>(s)];
  return out;
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
  std::vector<DeviceId> spread = CanonicalDataParallelPlacement(dp);
  for (DeviceId& d : spread)
    if (d != kInvalidDevice) d %= cluster.num_devices();
  const CalculatorOptions defaults;
  CompCostModel comp;
  CommCostModel comm;
  BootstrapProfile(dp.graph, spread, cluster, defaults, comp, comm);
  const PipelineSegments segments = SegmentPipeline(dp.graph, cluster, comp);

  PipelineGraph pipeline;
  pipeline.micro_batches = micro_batches;
  pipeline.global_batch = dp.global_batch;
  pipeline.placement =
      PipelinePlacement(segments, cluster, cluster.num_devices(),
                        defaults.os_dpos.dpos.memory_headroom);
  pipeline.priorities =
      PrioritiesFromOrder(segments.order, dp.graph.num_slots());
  pipeline.graph = std::move(dp.graph);
  return pipeline;
}

}  // namespace fastt
