// Greedy model-parallel start placement.
//
// When a model cannot fit on one device, FastT bootstraps from model
// parallelism instead of data parallelism (paper §4): the graph is cut into
// contiguous topological segments balanced by memory demand, one segment per
// device. This is only the *starting* strategy used to obtain cost-model
// profiles; DPOS/OS-DPOS take over once costs are known.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "sim/cluster.h"

namespace fastt {

// True if the whole graph fits on a single device under the pessimistic
// all-activations-live memory model (decides DP vs MP bootstrap).
bool FitsOnOneDevice(const Graph& g, const Cluster& cluster);

// Balanced topological segmentation over all devices. Colocation constraints
// are honored (colocated ops follow their target's segment).
std::vector<DeviceId> GreedyModelParallelPlacement(const Graph& g,
                                                   const Cluster& cluster);

// Anchors what a layer-wise cut leaves out. `where` holds one int32 per slot
// (a device or a segment), -1 while unassigned; `order` is a topological
// order of g's live ops. Each variable and input goes with its first assigned
// consumer (else 0). Then each op still unassigned goes with its colocation
// target, else with the colocation target of a successor (a weight gradient
// runs beside its variable's update), else with its first assigned forward
// predecessor, else with its first assigned predecessor, else 0.
void AnchorSourcesAndBackward(const Graph& g, const std::vector<OpId>& order,
                              std::vector<int32_t>& where);

}  // namespace fastt
