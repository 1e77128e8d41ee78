// The computation DAG: operations (nodes) connected by tensors (edges).
//
// This is the structure every FastT algorithm consumes — ranks (§5.1), DPOS
// device selection, OS-DPOS splitting (§5.2) — and the structure the
// simulator executes. Rewrites tombstone nodes/edges rather than renumbering,
// so OpIds remain stable across SplitOperation calls, and the graph's own
// mutators can be undone: OS-DPOS split trials and the annealing searcher
// rewrite one graph in place and roll it back instead of copying it.
//
// Storage. Op slots live in chunks of kChunkSlots consecutive ids. A chunk
// holds its slots' Operations and, in one contiguous pool, each slot's in-
// and out-edge ids; `in_edges`/`out_edges` are views into that pool. Edges
// are one flat array, and the name index is a flat open-addressing table of
// live op ids. Chunks are shared between copies (reference-counted): copying
// a graph copies the chunk handles, the edge array and the name table, not
// the ops. The first write to a chunk that another graph still holds clones
// that chunk alone, packing its edge-id lists in slot order. All of it is
// charged to MemTag::kGraph, whichever subsystem copies the graph, and a
// shared chunk is counted once.
//
// Validity. A reference returned by op() or mutable_op() and a span returned
// by in_edges()/out_edges() stay valid until the next mutation of the same
// graph: any mutator, mutable_op() and Undo, except RemoveEdge, which writes
// the edge array only. A loop that mutates the graph otherwise snapshots the
// list it walks first. Several threads may read and
// copy one graph at the same time while nobody mutates it. Distinct copies
// may be mutated concurrently: a chunk is written only by its sole owner.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graph/operation.h"
#include "util/check.h"
#include "util/memtrack.h"

namespace fastt {

using EdgeId = int32_t;

// Invariant: a live edge has two live endpoints. AddEdge rejects a dead
// endpoint, RemoveOp kills every edge it touches, and Undo revives an op
// with the edges its removal killed; Validate() checks it. So a reader that
// filters edges (the DPOS view, rank_u) tests edge.dead alone.
struct Edge {
  EdgeId id = -1;
  OpId src = kInvalidOp;
  OpId dst = kInvalidOp;
  bool dead = false;
  int64_t bytes = 0;  // tensor size carried by this edge
};

class Graph {
 public:
  // Op slots per storage chunk: the unit a copy shares and a write clones.
  static constexpr uint32_t kChunkSlots = 64;

  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}
  // A copy shares the chunks (see the header comment); a moved-from graph
  // is empty.
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

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
  // With no mark open the mutators record nothing. A copy takes the open
  // marks and the journal with it.
  size_t Mark();
  void Undo(size_t mark);
  void Commit(size_t mark);

  // ---- Access ------------------------------------------------------------

  // Total slots including tombstones; iterate with op(i).dead checks, or use
  // LiveOps().
  int32_t num_slots() const { return num_slots_; }
  // Total edge slots including tombstones (index space of EdgeId).
  int32_t num_edge_slots() const { return static_cast<int32_t>(edges_.size()); }
  int32_t num_live_ops() const { return num_live_; }
  int64_t num_live_edges() const;

  const Operation& op(OpId id) const { return slot(id).op; }
  Operation& mutable_op(OpId id);
  const Edge& edge(EdgeId id) const {
    FASTT_CHECK(id >= 0 && id < num_edge_slots());
    return edges_[static_cast<size_t>(id)];
  }

  // Live op ids in insertion order.
  std::vector<OpId> LiveOps() const;

  // Edge-id lists (may include dead edges; filter with edge(e).dead).
  std::span<const EdgeId> out_edges(OpId id) const {
    return ListOf(id, slot(id).out);
  }
  std::span<const EdgeId> in_edges(OpId id) const {
    return ListOf(id, slot(id).in);
  }

  // Live predecessor / successor op ids (deduplicated, insertion order).
  std::vector<OpId> Preds(OpId id) const;
  std::vector<OpId> Succs(OpId id) const;

  // Lookup by name; kInvalidOp if absent (or dead).
  OpId FindOp(const std::string& name) const;

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
  TaggedVector<double> LongestPathFromExit(
      const std::function<double(const Operation&)>& node_w,
      const std::function<double(const Edge&)>& edge_w) const;

  // ---- Aggregate stats ----------------------------------------------------
  double TotalFlops() const;
  int64_t TotalParamBytes() const;

 private:
  // A slot's in- or out-edge ids: pool[off, off + len) of its chunk, with
  // room up to off + cap.
  struct EdgeList {
    int32_t off = 0;
    int32_t len = 0;
    int32_t cap = 0;
  };
  struct Slot {
    Operation op;
    EdgeList in;
    EdgeList out;
  };
  struct Chunk {
    std::atomic<int32_t> owners{1};
    TaggedVector<Slot> slots{TaggedAlloc<Slot>(MemTag::kGraph)};
    TaggedVector<EdgeId> pool{TaggedAlloc<EdgeId>(MemTag::kGraph)};
  };
  // Shared ownership of a chunk. Not std::shared_ptr: its use_count() is a
  // relaxed read, so an owner that found itself the last one would not be
  // ordered after another thread's final reads of the chunk. unique() is
  // an acquire load of the count every release decrements.
  class ChunkRef {
   public:
    ChunkRef() = default;
    explicit ChunkRef(Chunk* chunk) : chunk_(chunk) {}
    ChunkRef(const ChunkRef& other);
    ChunkRef(ChunkRef&& other) noexcept;
    ChunkRef& operator=(ChunkRef other) noexcept;
    ~ChunkRef();

    Chunk& operator*() const { return *chunk_; }
    Chunk* operator->() const { return chunk_; }
    bool unique() const {
      return chunk_->owners.load(std::memory_order_acquire) == 1;
    }

   private:
    Chunk* chunk_ = nullptr;
  };

  // Open-addressing entry of the name index: a live op id and the hash of
  // its name; id == kInvalidOp marks an empty entry.
  struct NameEntry {
    uint32_t hash = 0;
    OpId id = kInvalidOp;
  };

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

  // A negative id wraps to a huge index and fails the first check.
  const Slot& slot(OpId id) const {
    const auto i = static_cast<uint32_t>(id);
    FASTT_CHECK(i / kChunkSlots < chunks_.size());
    const Chunk& chunk = *chunks_[i / kChunkSlots];
    FASTT_CHECK(i % kChunkSlots < chunk.slots.size());
    return chunk.slots[i % kChunkSlots];
  }
  std::span<const EdgeId> ListOf(OpId id, const EdgeList& list) const {
    const Chunk& chunk = *chunks_[static_cast<uint32_t>(id) / kChunkSlots];
    return {chunk.pool.data() + list.off, static_cast<size_t>(list.len)};
  }
  // The chunk holding slot `id`, cloned first if another graph shares it.
  Chunk& MutableChunk(OpId id);
  Slot& MutableSlot(OpId id);
  // Appends `e` to `list`, a list of a slot in `chunk`.
  static void Append(Chunk& chunk, EdgeList& list, EdgeId e);

  static uint32_t NameHash(const std::string& name);
  // Index of `name`'s entry, or of the empty entry ending its probe.
  size_t NameProbe(const std::string& name, uint32_t hash) const;
  void NameInsert(OpId id, uint32_t hash);
  void NameErase(OpId id, uint32_t hash);

  std::string name_;
  TaggedVector<ChunkRef> chunks_{TaggedAlloc<ChunkRef>(MemTag::kGraph)};
  TaggedVector<Edge> edges_{TaggedAlloc<Edge>(MemTag::kGraph)};
  // Capacity a power of two, at most 3/4 full; empty until the first op.
  TaggedVector<NameEntry> names_{TaggedAlloc<NameEntry>(MemTag::kGraph)};
  int32_t num_slots_ = 0;
  int32_t num_live_ = 0;
  TaggedVector<JournalEntry> journal_{
      TaggedAlloc<JournalEntry>(MemTag::kGraph)};
  // journal_ size at each open Mark(), outermost first.
  TaggedVector<size_t> marks_{TaggedAlloc<size_t>(MemTag::kGraph)};
};

}  // namespace fastt
