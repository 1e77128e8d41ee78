#include "core/model_parallel.h"

#include <algorithm>

#include "core/dpos.h"
#include "util/check.h"

namespace fastt {
namespace {

bool IsSource(const Operation& op) {
  return op.type == OpType::kVariable || op.type == OpType::kInput;
}

}  // namespace

bool FitsOnOneDevice(const Graph& g, const Cluster& cluster) {
  int64_t need = 0;
  for (OpId id : g.LiveOps()) need += MemNeed(g, id);
  int64_t smallest = cluster.device(0).usable_bytes();
  for (const Device& d : cluster.devices())
    smallest = std::min(smallest, d.usable_bytes());
  return need <= smallest;
}

std::vector<DeviceId> GreedyModelParallelPlacement(const Graph& g,
                                                   const Cluster& cluster) {
  const int32_t n_dev = cluster.num_devices();
  std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()),
                                  kInvalidDevice);

  // Memory attributed to each forward *layer* op: its own need plus the
  // need of everything colocated with it (optimizer state following a
  // variable) and of the variables/inputs it consumes — so the layer-wise
  // cut below balances the true per-layer footprint.
  std::vector<int64_t> attributed(static_cast<size_t>(g.num_slots()), 0);
  for (OpId id : g.LiveOps()) attributed[static_cast<size_t>(id)] =
      MemNeed(g, id);
  for (OpId id : g.LiveOps()) {
    const OpId target = g.op(id).colocate_with;
    if (target != kInvalidOp && target != id) {
      attributed[static_cast<size_t>(target)] +=
          attributed[static_cast<size_t>(id)];
      attributed[static_cast<size_t>(id)] = 0;
    }
  }
  for (OpId id : g.LiveOps()) {
    const Operation& op = g.op(id);
    if (!IsSource(op)) continue;
    for (OpId consumer : g.Succs(id)) {
      attributed[static_cast<size_t>(consumer)] +=
          attributed[static_cast<size_t>(id)];
      attributed[static_cast<size_t>(id)] = 0;
      break;  // first consumer carries the weight
    }
  }

  int64_t total_need = 0;
  const std::vector<OpId> order = g.TopoOrder();
  for (OpId id : order)
    if (!g.op(id).is_backward) total_need += attributed[static_cast<size_t>(id)];
  const int64_t per_device_target = total_need / n_dev + 1;

  // Pass 1: forward layer ops in contiguous topological segments, balanced
  // by attributed memory. Variables and inputs are deferred — they follow
  // their first consumer, which keeps weights with the layer that uses them.
  DeviceId current = 0;
  int64_t used = 0;
  for (OpId id : order) {
    const Operation& op = g.op(id);
    if (op.is_backward || IsSource(op)) continue;
    if (op.colocate_with != kInvalidOp &&
        placement[static_cast<size_t>(op.colocate_with)] != kInvalidDevice) {
      placement[static_cast<size_t>(id)] =
          placement[static_cast<size_t>(op.colocate_with)];
      continue;
    }
    const int64_t need = attributed[static_cast<size_t>(id)];
    if (current < n_dev - 1 &&
        (used + need > per_device_target ||
         used + need > cluster.device(current).usable_bytes())) {
      ++current;
      used = 0;
    }
    placement[static_cast<size_t>(id)] = current;
    used += need;
  }

  // Pass 2: variables and inputs live with their first placed consumer, and
  // backward ops run where the forward activations they consume live —
  // gradients of layer k execute on layer k's device, so activations never
  // cross the cut.
  AnchorSourcesAndBackward(g, order, placement);
  return placement;
}

void AnchorSourcesAndBackward(const Graph& g, const std::vector<OpId>& order,
                              std::vector<int32_t>& where) {
  auto at = [&](OpId id) -> int32_t& {
    return where[static_cast<size_t>(id)];
  };
  auto live = [&](EdgeId e, OpId other) {
    return !g.edge(e).dead && !g.op(other).dead;
  };
  for (OpId id : order) {
    if (!IsSource(g.op(id))) continue;
    int32_t chosen = 0;
    for (EdgeId e : g.out_edges(id)) {
      const OpId consumer = g.edge(e).dst;
      if (live(e, consumer) && at(consumer) >= 0) {
        chosen = at(consumer);
        break;
      }
    }
    at(id) = chosen;
  }
  // Topological order places every predecessor first.
  for (OpId id : order) {
    if (at(id) >= 0) continue;
    const OpId target = g.op(id).colocate_with;
    if (target != kInvalidOp && at(target) >= 0) {
      at(id) = at(target);
      continue;
    }
    int32_t chosen = -1;
    // A weight gradient feeds an optimizer update pinned to its variable:
    // run it there (the gradient tensor is usually far larger than the
    // activations it reads).
    for (EdgeId e : g.out_edges(id)) {
      const OpId succ = g.edge(e).dst;
      if (!live(e, succ)) continue;
      const OpId anchor = g.op(succ).colocate_with;
      if (anchor != kInvalidOp && at(anchor) >= 0) {
        chosen = at(anchor);
        break;
      }
    }
    if (chosen < 0) {
      for (EdgeId e : g.in_edges(id)) {
        const OpId pred = g.edge(e).src;
        if (!live(e, pred) || at(pred) < 0) continue;
        // Prefer a forward predecessor (the activation's home).
        if (!g.op(pred).is_backward) {
          chosen = at(pred);
          break;
        }
        if (chosen < 0) chosen = at(pred);
      }
    }
    at(id) = std::max(chosen, 0);
  }
}

}  // namespace fastt
