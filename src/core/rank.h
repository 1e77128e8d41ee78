// Operation prioritization (paper §5.1): the critical-path rank
//
//   rank_u(o_i) = w_i + max_{o_j in succ(o_i)} (c_{i,j} + rank_u(o_j))
//
// where w_i is the op's maximal execution time over devices and c_{i,j} the
// maximal tensor transmission time over device pairs — both read from the
// adaptive cost models (unknown costs price as 0, the exploration rule).
#pragma once

#include "cost/comm_cost.h"
#include "cost/comp_cost.h"
#include "cost/cost_table.h"
#include "graph/graph.h"
#include "util/memtrack.h"

namespace fastt {

// rank_u per OpId slot (0 for dead slots), read from dense cost-table
// snapshots (the search hot path).
TaggedVector<double> ComputeRankU(const Graph& g, const CompCostTable& comp,
                                  const CommCostTable& comm);

// Same, snapshotting the cost models first.
TaggedVector<double> ComputeRankU(const Graph& g, const CompCostModel& comp,
                                  const CommCostModel& comm,
                                  int32_t num_devices);

// Re-sweeps rank_u over part of a graph, with buffers reused across calls.
// Update recomputes `rank` for every live slot at or after `first_new` and
// every live ancestor of one, in reverse topological order, and leaves the
// other slots as they are. The live ones must already hold their rank_u in
// `g`, which holds when the edits since they were computed only appended
// slots, killed ops and rewired edges out of the ancestors of appended
// slots (what SplitOperation does); a killed op keeps its old value. With
// first_new = 0 it is the full sweep ComputeRankU runs. Throws
// std::logic_error if the swept part has a cycle.
class RankUSweep {
 public:
  void Update(const Graph& g, OpId first_new, const CompCostTable& comp,
              const CommCostTable& comm, TaggedVector<double>& rank);

 private:
  // Per slot: -1 outside the swept cone, else the number of its live
  // out-edges into the cone whose consumer is not ranked yet.
  TaggedVector<int32_t> pending_{TaggedAlloc<int32_t>(MemTag::kDpos)};
  TaggedVector<OpId> cone_{TaggedAlloc<OpId>(MemTag::kDpos)};
  TaggedVector<OpId> ready_{TaggedAlloc<OpId>(MemTag::kDpos)};
};

// The critical path: starting from the live op with the largest rank,
// repeatedly follow the successor with the largest rank.
TaggedVector<OpId> CriticalPathByRank(const Graph& g,
                                      const TaggedVector<double>& rank);

}  // namespace fastt
