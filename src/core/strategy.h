// Strategy types — the output of the paper's problem definition (§3): an
// operation partition list, a device placement for every (sub-)operation,
// and an execution order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "sim/device.h"

namespace fastt {

struct SplitDecision {
  std::string op_name;
  SplitDim dim = SplitDim::kNone;
  int num_splits = 0;
};

struct Strategy {
  // Device per OpId slot (kInvalidDevice for dead slots).
  std::vector<DeviceId> placement;
  // Ops sorted by scheduled start time — the execution order list A.
  std::vector<OpId> execution_order;
  // Split list SP (already applied to the strategy's graph).
  std::vector<SplitDecision> splits;
  // Scheduler's predicted finish time of the exit op, FT(o_exit).
  double predicted_makespan = 0.0;
  // Micro-batches (replicas) of the data-parallel graph the slot ids refer
  // to, when not one per device: RunFastT's doubled pipeline runs 2|D|. 0 for
  // the graph FastT searches (|D| replicas, or the bare model).
  int micro_batches = 0;
};

// Order enforcement (paper §6.1): the index of each op in the execution
// order list becomes its executor priority; ops absent from the order get
// the lowest priority. Returns a vector indexed by OpId.
inline std::vector<int64_t> PrioritiesFromOrder(
    const std::vector<OpId>& order, int32_t num_slots) {
  std::vector<int64_t> priorities(static_cast<size_t>(num_slots),
                                  static_cast<int64_t>(order.size()));
  for (size_t i = 0; i < order.size(); ++i)
    priorities[static_cast<size_t>(order[i])] = static_cast<int64_t>(i);
  return priorities;
}

}  // namespace fastt
