#include "graph/graph.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "util/check.h"

namespace fastt {

OpId Graph::AddOp(Operation op) {
  FASTT_CHECK_MSG(!op.name.empty(), "operation must have a name");
  FASTT_CHECK_MSG(by_name_.find(op.name) == by_name_.end(),
                  "duplicate op name: " + op.name);
  const OpId id = static_cast<OpId>(ops_.size());
  op.id = id;
  by_name_.emplace(op.name, id);
  ops_.push_back(std::move(op));
  // Adjacency lists get an explicit kGraph allocator — emplace_back would
  // otherwise default-construct them under the caller's ambient tag.
  out_edges_.emplace_back(TaggedAlloc<EdgeId>(MemTag::kGraph));
  in_edges_.emplace_back(TaggedAlloc<EdgeId>(MemTag::kGraph));
  ++num_live_;
  Record(JournalEntry::Kind::kAddOp, id);
  return id;
}

EdgeId Graph::AddEdge(OpId src, OpId dst, int64_t bytes) {
  FASTT_CHECK(src >= 0 && src < num_slots());
  FASTT_CHECK(dst >= 0 && dst < num_slots());
  FASTT_CHECK_MSG(src != dst, "self-edge on op " + ops_[src].name);
  FASTT_CHECK_MSG(!ops_[src].dead && !ops_[dst].dead,
                  "edge touches a dead op");
  Edge e;
  e.id = static_cast<EdgeId>(edges_.size());
  e.src = src;
  e.dst = dst;
  e.bytes = bytes >= 0 ? bytes : ops_[src].output_bytes();
  edges_.push_back(e);
  out_edges_[src].push_back(e.id);
  in_edges_[dst].push_back(e.id);
  Record(JournalEntry::Kind::kAddEdge, e.id);
  return e.id;
}

void Graph::RemoveOp(OpId id) {
  Operation& op = mutable_op(id);
  if (op.dead) return;
  op.dead = true;
  --num_live_;
  by_name_.erase(op.name);
  Record(JournalEntry::Kind::kKillOp, id);
  for (EdgeId e : out_edges_[id]) RemoveEdge(e);
  for (EdgeId e : in_edges_[id]) RemoveEdge(e);
}

void Graph::RemoveEdge(EdgeId id) {
  FASTT_CHECK(id >= 0 && id < static_cast<EdgeId>(edges_.size()));
  // Only a live -> dead transition is journaled: undoing it must not revive
  // an edge that was already dead at the mark.
  if (edges_[id].dead) return;
  edges_[id].dead = true;
  Record(JournalEntry::Kind::kKillEdge, id);
}

void Graph::SetColocateWith(OpId id, OpId target) {
  Operation& op = mutable_op(id);
  Record(JournalEntry::Kind::kColocate, id, op.colocate_with);
  op.colocate_with = target;
}

size_t Graph::Mark() {
  marks_.push_back(journal_.size());
  return marks_.size() - 1;
}

void Graph::Undo(size_t mark) {
  FASTT_CHECK_MSG(mark + 1 == marks_.size(),
                  "Undo of a mark that is not innermost");
  const size_t begin = marks_.back();
  marks_.pop_back();
  while (journal_.size() > begin) {
    const JournalEntry e = journal_.back();
    journal_.pop_back();
    switch (e.kind) {
      case JournalEntry::Kind::kAddOp:
        // Every edit after this op's AddOp is already undone: it is the
        // last slot, live, with empty edge lists.
        FASTT_CHECK(e.id == num_slots() - 1);
        by_name_.erase(ops_.back().name);
        ops_.pop_back();
        out_edges_.pop_back();
        in_edges_.pop_back();
        --num_live_;
        break;
      case JournalEntry::Kind::kAddEdge: {
        FASTT_CHECK(e.id == num_edge_slots() - 1);
        const Edge& edge = edges_.back();
        out_edges_[static_cast<size_t>(edge.src)].pop_back();
        in_edges_[static_cast<size_t>(edge.dst)].pop_back();
        edges_.pop_back();
        break;
      }
      case JournalEntry::Kind::kKillOp: {
        Operation& op = ops_[static_cast<size_t>(e.id)];
        op.dead = false;
        ++num_live_;
        by_name_.emplace(op.name, e.id);
        break;
      }
      case JournalEntry::Kind::kKillEdge:
        edges_[static_cast<size_t>(e.id)].dead = false;
        break;
      case JournalEntry::Kind::kColocate:
        ops_[static_cast<size_t>(e.id)].colocate_with = e.old;
        break;
    }
  }
}

void Graph::Commit(size_t mark) {
  FASTT_CHECK_MSG(mark + 1 == marks_.size(),
                  "Commit of a mark that is not innermost");
  marks_.pop_back();
  if (marks_.empty()) journal_.clear();
}

int64_t Graph::num_live_edges() const {
  int64_t n = 0;
  for (const Edge& e : edges_)
    if (!e.dead) ++n;
  return n;
}

const Operation& Graph::op(OpId id) const {
  FASTT_CHECK(id >= 0 && id < num_slots());
  return ops_[static_cast<size_t>(id)];
}

Operation& Graph::mutable_op(OpId id) {
  FASTT_CHECK(id >= 0 && id < num_slots());
  return ops_[static_cast<size_t>(id)];
}

const Edge& Graph::edge(EdgeId id) const {
  FASTT_CHECK(id >= 0 && id < static_cast<EdgeId>(edges_.size()));
  return edges_[static_cast<size_t>(id)];
}

std::vector<OpId> Graph::LiveOps() const {
  std::vector<OpId> out;
  out.reserve(static_cast<size_t>(num_live_));
  for (const Operation& op : ops_)
    if (!op.dead) out.push_back(op.id);
  return out;
}

const EdgeIdList& Graph::out_edges(OpId id) const {
  FASTT_CHECK(id >= 0 && id < num_slots());
  return out_edges_[static_cast<size_t>(id)];
}

const EdgeIdList& Graph::in_edges(OpId id) const {
  FASTT_CHECK(id >= 0 && id < num_slots());
  return in_edges_[static_cast<size_t>(id)];
}

std::vector<OpId> Graph::Preds(OpId id) const {
  std::vector<OpId> out;
  std::unordered_set<OpId> seen;
  for (EdgeId e : in_edges(id)) {
    const Edge& edge = edges_[e];
    if (edge.dead || ops_[edge.src].dead) continue;
    if (seen.insert(edge.src).second) out.push_back(edge.src);
  }
  return out;
}

std::vector<OpId> Graph::Succs(OpId id) const {
  std::vector<OpId> out;
  std::unordered_set<OpId> seen;
  for (EdgeId e : out_edges(id)) {
    const Edge& edge = edges_[e];
    if (edge.dead || ops_[edge.dst].dead) continue;
    if (seen.insert(edge.dst).second) out.push_back(edge.dst);
  }
  return out;
}

OpId Graph::FindOp(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidOp : it->second;
}

std::vector<OpId> Graph::EntryOps() const {
  std::vector<OpId> out;
  for (const Operation& op : ops_) {
    if (op.dead) continue;
    bool has_live_in = false;
    for (EdgeId e : in_edges_[op.id]) {
      if (!edges_[e].dead) {
        has_live_in = true;
        break;
      }
    }
    if (!has_live_in) out.push_back(op.id);
  }
  return out;
}

std::vector<OpId> Graph::ExitOps() const {
  std::vector<OpId> out;
  for (const Operation& op : ops_) {
    if (op.dead) continue;
    bool has_live_out = false;
    for (EdgeId e : out_edges_[op.id]) {
      if (!edges_[e].dead) {
        has_live_out = true;
        break;
      }
    }
    if (!has_live_out) out.push_back(op.id);
  }
  return out;
}

std::vector<OpId> Graph::TopoOrder() const {
  std::vector<int32_t> in_degree(ops_.size(), 0);
  for (const Edge& e : edges_) {
    if (e.dead || ops_[e.src].dead || ops_[e.dst].dead) continue;
    ++in_degree[static_cast<size_t>(e.dst)];
  }
  std::deque<OpId> ready;
  for (const Operation& op : ops_)
    if (!op.dead && in_degree[static_cast<size_t>(op.id)] == 0)
      ready.push_back(op.id);

  std::vector<OpId> order;
  order.reserve(static_cast<size_t>(num_live_));
  while (!ready.empty()) {
    const OpId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (EdgeId e : out_edges_[id]) {
      const Edge& edge = edges_[e];
      if (edge.dead || ops_[edge.dst].dead) continue;
      if (--in_degree[static_cast<size_t>(edge.dst)] == 0)
        ready.push_back(edge.dst);
    }
  }
  FASTT_CHECK_MSG(order.size() == static_cast<size_t>(num_live_),
                  "graph contains a cycle");
  return order;
}

bool Graph::IsAcyclic() const {
  try {
    TopoOrder();
    return true;
  } catch (const std::logic_error&) {
    return false;
  }
}

void Graph::Validate() const {
  std::unordered_set<std::string> names;
  for (const Operation& op : ops_) {
    if (op.dead) continue;
    FASTT_CHECK_MSG(names.insert(op.name).second,
                    "duplicate live op name: " + op.name);
    FASTT_CHECK(op.flops >= 0.0);
    FASTT_CHECK(op.param_bytes >= 0);
  }
  for (const Edge& e : edges_) {
    if (e.dead) continue;
    FASTT_CHECK_MSG(!ops_[e.src].dead && !ops_[e.dst].dead,
                    "live edge touches dead op");
    FASTT_CHECK(e.bytes >= 0);
  }
  FASTT_CHECK(IsAcyclic());
}

std::vector<double> Graph::LongestPathFromExit(
    const std::function<double(const Operation&)>& node_w,
    const std::function<double(const Edge&)>& edge_w) const {
  std::vector<double> value(ops_.size(), 0.0);
  const std::vector<OpId> order = TopoOrder();
  // Reverse topological sweep: successors are finalized before predecessors.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const OpId id = *it;
    double best_succ = 0.0;
    for (EdgeId e : out_edges_[id]) {
      const Edge& edge = edges_[e];
      if (edge.dead || ops_[edge.dst].dead) continue;
      best_succ = std::max(best_succ,
                           edge_w(edge) + value[static_cast<size_t>(edge.dst)]);
    }
    value[static_cast<size_t>(id)] = node_w(ops_[static_cast<size_t>(id)]) +
                                     best_succ;
  }
  return value;
}

double Graph::TotalFlops() const {
  double total = 0.0;
  for (const Operation& op : ops_)
    if (!op.dead) total += op.flops;
  return total;
}

int64_t Graph::TotalParamBytes() const {
  int64_t total = 0;
  for (const Operation& op : ops_)
    if (!op.dead) total += op.param_bytes;
  return total;
}

}  // namespace fastt
