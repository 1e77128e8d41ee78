// The computation DAG: operations (nodes) connected by tensors (edges).
//
// This is the structure every FastT algorithm consumes — ranks (§5.1), DPOS
// device selection, OS-DPOS splitting (§5.2) — and the structure the
// simulator executes. Rewrites tombstone nodes/edges rather than renumbering,
// so OpIds remain stable across SplitOperation calls, and the graph's own
// mutators can be undone: OS-DPOS split trials and the annealing searcher
// rewrite one graph in place and roll it back instead of copying it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/operation.h"
#include "util/memtrack.h"

namespace fastt {

using EdgeId = int32_t;

// Graph storage is charged to MemTag::kGraph regardless of which subsystem
// constructs or copies the graph (OS-DPOS scratch graphs and the undo
// journal included) — the allocator is fixed per-member, not taken from the
// ambient scope.
using EdgeIdList = TaggedVector<EdgeId>;

// Invariant: a live edge has two live endpoints. AddEdge rejects a dead
// endpoint, RemoveOp kills every edge it touches, and Undo revives an op
// with the edges its removal killed; Validate() checks it. So a reader that
// filters edges (the DPOS view, rank_u) tests edge.dead alone.
struct Edge {
  EdgeId id = -1;
  OpId src = kInvalidOp;
  OpId dst = kInvalidOp;
  int64_t bytes = 0;  // tensor size carried by this edge
  bool dead = false;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // ---- Construction ----------------------------------------------------

  // Adds an operation; assigns and returns its id. Names must be unique.
  OpId AddOp(Operation op);

  // Adds an edge carrying `bytes` (or, if bytes < 0, the source op's output
  // tensor size). Self-edges and duplicate (src,dst) pairs are allowed —
  // TF graphs routinely carry several tensors between the same pair.
  EdgeId AddEdge(OpId src, OpId dst, int64_t bytes = -1);

  // Tombstones an op and every edge touching it.
  void RemoveOp(OpId id);
  void RemoveEdge(EdgeId id);

  // Points op `id`'s colocation constraint at `target` (kInvalidOp clears
  // it). The journaled way to rewrite colocate_with.
  void SetColocateWith(OpId id, OpId target);

  // ---- Undo journal --------------------------------------------------------
  //
  // Mark() opens a journal of every edit this class's mutators make
  // (AddOp, AddEdge, RemoveOp, RemoveEdge, SetColocateWith) and returns a
  // handle. Undo(mark) reverts the edits made since that Mark(), newest
  // first, and leaves the graph equal to what it was then: the same slots,
  // every op's in- and out-edge list in the same order, the same dead
  // flags, live count and colocation targets, and the same FindOp answer
  // for every name. Commit(mark) keeps the edits; inside an outer mark they
  // stay journaled, so the outer Undo still reverts them. Marks close
  // innermost first. Edits made through mutable_op() are not journaled.
  // With no mark open the mutators record nothing.
  size_t Mark();
  void Undo(size_t mark);
  void Commit(size_t mark);

  // ---- Access ------------------------------------------------------------

  // Total slots including tombstones; iterate with op(i).dead checks, or use
  // LiveOps().
  int32_t num_slots() const { return static_cast<int32_t>(ops_.size()); }
  // Total edge slots including tombstones (index space of EdgeId).
  int32_t num_edge_slots() const { return static_cast<int32_t>(edges_.size()); }
  int32_t num_live_ops() const { return num_live_; }
  int64_t num_live_edges() const;

  const Operation& op(OpId id) const;
  Operation& mutable_op(OpId id);
  const Edge& edge(EdgeId id) const;

  // Live op ids in insertion order.
  std::vector<OpId> LiveOps() const;

  // Edge-id lists (may include dead edges; filter with edge(e).dead).
  const EdgeIdList& out_edges(OpId id) const;
  const EdgeIdList& in_edges(OpId id) const;

  // Live predecessor / successor op ids (deduplicated, insertion order).
  std::vector<OpId> Preds(OpId id) const;
  std::vector<OpId> Succs(OpId id) const;

  // Lookup by name; kInvalidOp if absent (or dead).
  OpId FindOp(const std::string& name) const;

  // Ops with no live in-edges / no live out-edges.
  std::vector<OpId> EntryOps() const;
  std::vector<OpId> ExitOps() const;

  // ---- Algorithms --------------------------------------------------------

  // Topological order of live ops. Throws std::logic_error on a cycle.
  std::vector<OpId> TopoOrder() const;

  // True iff the live subgraph is acyclic.
  bool IsAcyclic() const;

  // Validates ids, name uniqueness among live ops, acyclicity.
  void Validate() const;

  // Longest path value per op given node weights and edge weights: for each
  // live op, weight(op) + max over live out-edges of (edge_w + value(succ)).
  // This is exactly the paper's rank_u recursion with pluggable costs.
  std::vector<double> LongestPathFromExit(
      const std::function<double(const Operation&)>& node_w,
      const std::function<double(const Edge&)>& edge_w) const;

  // ---- Aggregate stats ----------------------------------------------------
  double TotalFlops() const;
  int64_t TotalParamBytes() const;

 private:
  using NameMap =
      std::unordered_map<std::string, OpId, std::hash<std::string>,
                         std::equal_to<std::string>,
                         TaggedAlloc<std::pair<const std::string, OpId>>>;

  // One journaled edit. kAddOp/kAddEdge are undone by truncation (they are
  // always the newest slot when their entry is reached), the kill entries
  // by clearing the dead flag they set, kColocate by restoring `old`.
  struct JournalEntry {
    enum class Kind : uint8_t { kAddOp, kAddEdge, kKillOp, kKillEdge,
                                kColocate };
    Kind kind = Kind::kAddOp;
    int32_t id = -1;  // op or edge id
    OpId old = kInvalidOp;
  };
  void Record(JournalEntry::Kind kind, int32_t id, OpId old = kInvalidOp) {
    if (!marks_.empty()) journal_.push_back({kind, id, old});
  }

  std::string name_;
  TaggedVector<Operation> ops_{TaggedAlloc<Operation>(MemTag::kGraph)};
  TaggedVector<Edge> edges_{TaggedAlloc<Edge>(MemTag::kGraph)};
  TaggedVector<EdgeIdList> out_edges_{TaggedAlloc<EdgeIdList>(MemTag::kGraph)};
  TaggedVector<EdgeIdList> in_edges_{TaggedAlloc<EdgeIdList>(MemTag::kGraph)};
  NameMap by_name_{NameMap::allocator_type(MemTag::kGraph)};
  int32_t num_live_ = 0;
  TaggedVector<JournalEntry> journal_{
      TaggedAlloc<JournalEntry>(MemTag::kGraph)};
  // journal_ size at each open Mark(), outermost first.
  TaggedVector<size_t> marks_{TaggedAlloc<size_t>(MemTag::kGraph)};
};

}  // namespace fastt
