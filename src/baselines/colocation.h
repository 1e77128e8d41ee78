// Colocation resolution shared by the black-box searchers (searchers.cc) and
// the published rivals (rivals.cc). Internal to the baselines library.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "sim/device.h"

namespace fastt {

// Resolves colocation constraints onto an otherwise-free placement: ops are
// visited in `topo`, which must be g.TopoOrder(), and each colocated op takes
// its referent's device. Callers compute the order once per graph and reuse
// it across the placements they score.
inline void ApplyColocation(const Graph& g, const std::vector<OpId>& topo,
                            std::vector<DeviceId>& placement) {
  for (OpId id : topo) {
    const OpId target = g.op(id).colocate_with;
    if (target != kInvalidOp &&
        placement[static_cast<size_t>(target)] != kInvalidDevice)
      placement[static_cast<size_t>(id)] =
          placement[static_cast<size_t>(target)];
  }
}

}  // namespace fastt
