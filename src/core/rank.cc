#include "core/rank.h"

#include <algorithm>
#include <stdexcept>

// A live edge has two live endpoints (graph.h), so the edge filters below
// test edge.dead alone.
namespace fastt {

TaggedVector<double> ComputeRankU(const Graph& g, const CompCostTable& comp,
                                  const CommCostTable& comm) {
  TaggedVector<double> rank(static_cast<size_t>(g.num_slots()), 0.0);
  RankUSweep().Update(g, 0, comp, comm, rank);
  return rank;
}

TaggedVector<double> ComputeRankU(const Graph& g, const CompCostModel& comp,
                                  const CommCostModel& comm,
                                  int32_t num_devices) {
  return ComputeRankU(g, CompCostTable(g, comp, num_devices),
                      CommCostTable(comm, num_devices));
}

void RankUSweep::Update(const Graph& g, OpId first_new,
                        const CompCostTable& comp, const CommCostTable& comm,
                        TaggedVector<double>& rank) {
  constexpr int32_t kOutside = -1;
  const size_t slots = static_cast<size_t>(g.num_slots());
  rank.resize(slots, 0.0);
  // Every entry is kOutside between calls, so growing may drop them.
  ReserveExact(pending_, slots);
  pending_.resize(slots, kOutside);

  // The cone: live slots from first_new on, closed under live predecessors.
  cone_.clear();
  for (OpId id = first_new; id < g.num_slots(); ++id) {
    if (g.op(id).dead) continue;
    pending_[static_cast<size_t>(id)] = 0;
    cone_.push_back(id);
  }
  // (From slot 0 every live op is already in.)
  for (size_t i = 0; first_new > 0 && i < cone_.size(); ++i) {
    for (EdgeId e : g.in_edges(cone_[i])) {
      const Edge& edge = g.edge(e);
      if (edge.dead) continue;
      int32_t& p = pending_[static_cast<size_t>(edge.src)];
      if (p != kOutside) continue;
      p = 0;
      cone_.push_back(edge.src);
    }
  }
  for (OpId id : cone_)
    for (EdgeId e : g.out_edges(id)) {
      const Edge& edge = g.edge(e);
      if (!edge.dead && pending_[static_cast<size_t>(edge.dst)] != kOutside)
        ++pending_[static_cast<size_t>(id)];
    }

  // Reverse topological sweep from the cone's sinks: an op is ranked once
  // every consumer in the cone is; consumers outside it keep their rank.
  // The rank step reads only final values, so the order ops become ready in
  // does not change a bit of the result.
  ready_.clear();
  for (OpId id : cone_)
    if (pending_[static_cast<size_t>(id)] == 0) ready_.push_back(id);
  size_t ranked = 0;
  while (!ready_.empty()) {
    const OpId id = ready_.back();
    ready_.pop_back();
    ++ranked;
    double best_succ = 0.0;
    for (EdgeId e : g.out_edges(id)) {
      const Edge& edge = g.edge(e);
      if (edge.dead) continue;
      best_succ = std::max(best_succ,
                           comm.MaxOverPairs(edge.bytes) +
                               rank[static_cast<size_t>(edge.dst)]);
    }
    rank[static_cast<size_t>(id)] = comp.MaxOverDevices(id) + best_succ;
    for (EdgeId e : g.in_edges(id)) {
      const Edge& edge = g.edge(e);
      if (!edge.dead && --pending_[static_cast<size_t>(edge.src)] == 0)
        ready_.push_back(edge.src);
    }
  }
  for (OpId id : cone_) pending_[static_cast<size_t>(id)] = kOutside;
  if (ranked != cone_.size())
    throw std::logic_error("rank_u: graph " + g.name() + " has a cycle");
}

TaggedVector<OpId> CriticalPathByRank(const Graph& g,
                                      const TaggedVector<double>& rank) {
  OpId best = kInvalidOp;
  for (OpId id = 0; id < g.num_slots(); ++id) {
    if (g.op(id).dead) continue;
    if (best == kInvalidOp ||
        rank[static_cast<size_t>(id)] > rank[static_cast<size_t>(best)])
      best = id;
  }
  TaggedVector<OpId> path;
  while (best != kInvalidOp) {
    path.push_back(best);
    // First live successor (in out-edge order) with the largest rank.
    OpId next = kInvalidOp;
    for (EdgeId e : g.out_edges(best)) {
      const Edge& edge = g.edge(e);
      if (edge.dead) continue;
      if (next == kInvalidOp || rank[static_cast<size_t>(edge.dst)] >
                                    rank[static_cast<size_t>(next)])
        next = edge.dst;
    }
    best = next;
  }
  return path;
}

}  // namespace fastt
