// DPOS — Device Placement and Operation Sequencing (paper Alg. 1).
//
// List scheduling in two phases:
//   1. operation prioritization by critical-path rank (rank_u), and
//   2. device selection: critical-path ops go to dedicated critical-path
//      device(s) chosen by smallest average compute time within memory
//      capacity; other ops take the device minimizing their earliest finish
//      time, with insertion-based scheduling into idle timeline gaps.
//
// The scheduler consumes only the adaptive cost models — never the
// simulator's ground truth — and prices unknown costs at 0 so that fresh
// placements get explored and profiled (paper §4).
#pragma once

#include "core/strategy.h"
#include "cost/comm_cost.h"
#include "cost/comp_cost.h"
#include "cost/cost_table.h"
#include "graph/graph.h"
#include "graph/memory.h"
#include "obs/provenance.h"
#include "sim/cluster.h"
#include "util/memtrack.h"

namespace fastt {

struct DposOptions {
  // Disable the critical-path device policy (ablation hook): every op then
  // uses plain min-EFT selection.
  bool use_critical_path_device = true;
  // Communication-affinity weight in device selection. Plain min-EFT is
  // myopic: an op's heavy tensors (weight broadcasts in, gradients toward a
  // fixed aggregation site out) often overlap compute, so their cost only
  // surfaces after the op is already placed. Scoring each candidate device
  // with EFT + λ·(estimated remote traffic of the op's in-edges and of
  // out-edges whose consumer is pinned by colocation) reproduces the
  // placements the paper reports in §6.5 — replicas of large-parameter
  // operations gathered on one GPU to avoid weight/gradient traffic. λ = 0
  // recovers the plain min-EFT rule (ablation).
  double comm_affinity = 1.0;
  // Fraction of a device's usable memory the scheduler may plan to fill;
  // the rest is headroom for transfer staging and transient gradients the
  // MemNeed estimate does not capture.
  double memory_headroom = 0.92;
  // Record, per placed op, the full candidate table and the reason the
  // chosen device won (DposResult::provenance). Disabled cost: one branch
  // per placement decision, like the FASTT_TRACE_* gates.
  bool record_provenance = false;
};

struct DposResult {
  Strategy strategy;
  double ft_exit = 0.0;             // FT(o_exit), the objective
  std::vector<double> start_time;   // ST per slot
  std::vector<double> finish_time;  // FT per slot
  // True when some op could not fit on any device (the simulator will OOM).
  bool memory_overflow = false;
  // One decision record per placed op, in placement order; populated only
  // when DposOptions::record_provenance is set.
  std::vector<PlacementDecision> provenance;
};

// What DPOS derives from the graph and the cost models before it places an
// op: dense cost snapshots, per-slot placement memory demand, and the
// prioritization phase's rank_u and rank-based critical path. Dpos builds
// them from scratch; OS-DPOS split trials derive theirs from their probe's
// (SplitTrialInputs, os_dpos.h).
struct DposInputs {
  CompCostTable comp;
  CommCostTable comm;
  TaggedVector<int64_t> mem_need{
      TaggedAlloc<int64_t>(MemTag::kDpos)};  // MemNeed per slot, 0 if dead
  TaggedVector<double> rank{
      TaggedAlloc<double>(MemTag::kDpos)};  // rank_u per slot, 0 if dead
  TaggedVector<OpId> critical_path{
      TaggedAlloc<OpId>(MemTag::kDpos)};  // CriticalPathByRank(rank)
};

DposInputs BuildDposInputs(const Graph& g, int32_t num_devices,
                           const CompCostModel& comp,
                           const CommCostModel& comm);

// DPOS in three steps: build the inputs, list-schedule on them (placement,
// start and finish times, ft_exit, memory_overflow; execution_order is left
// empty), and order the schedule (execution_order: live ops by scheduled
// start time, ties broken topologically).
DposResult Dpos(const Graph& g, const Cluster& cluster,
                const CompCostModel& comp, const CommCostModel& comm,
                const DposOptions& options = {});
DposResult DposListSchedule(const Graph& g, const Cluster& cluster,
                            const DposInputs& inputs,
                            const DposOptions& options = {});
void OrderDposSchedule(const Graph& g, DposResult* result);

// The critical path realized by a concrete schedule: backtrack from the op
// with the largest finish time through the binding predecessor constraint.
TaggedVector<OpId> RealizedCriticalPath(const Graph& g,
                                        const DposResult& result,
                                        const CommCostModel& comm);

}  // namespace fastt
