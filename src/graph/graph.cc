#include "graph/graph.h"

#include <algorithm>
#include <deque>
#include <new>
#include <string_view>
#include <unordered_set>
#include <utility>

namespace fastt {
namespace {

// Chunks are allocated through TaggedAlloc so their headers land on the
// graph tag like the vectors inside them.
template <typename Chunk>
Chunk* NewChunk() {
  return new (TaggedAlloc<Chunk>(MemTag::kGraph).allocate(1)) Chunk();
}

}  // namespace

// ---- Chunk ownership --------------------------------------------------------

Graph::ChunkRef::ChunkRef(const ChunkRef& other) : chunk_(other.chunk_) {
  if (chunk_ != nullptr) chunk_->owners.fetch_add(1, std::memory_order_relaxed);
}

Graph::ChunkRef::ChunkRef(ChunkRef&& other) noexcept
    : chunk_(std::exchange(other.chunk_, nullptr)) {}

Graph::ChunkRef& Graph::ChunkRef::operator=(ChunkRef other) noexcept {
  std::swap(chunk_, other.chunk_);
  return *this;
}

Graph::ChunkRef::~ChunkRef() {
  if (chunk_ == nullptr ||
      chunk_->owners.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return;
  chunk_->~Chunk();
  TaggedAlloc<Chunk>(MemTag::kGraph).deallocate(chunk_, 1);
}

Graph::Graph(Graph&& other) noexcept { *this = std::move(other); }

Graph& Graph::operator=(Graph&& other) noexcept {
  name_ = std::move(other.name_);
  chunks_ = std::move(other.chunks_);
  edges_ = std::move(other.edges_);
  names_ = std::move(other.names_);
  journal_ = std::move(other.journal_);
  marks_ = std::move(other.marks_);
  num_slots_ = std::exchange(other.num_slots_, 0);
  num_live_ = std::exchange(other.num_live_, 0);
  other.chunks_.clear();
  other.edges_.clear();
  other.names_.clear();
  other.journal_.clear();
  other.marks_.clear();
  return *this;
}

Graph::Chunk& Graph::MutableChunk(OpId id) {
  ChunkRef& ref = chunks_[static_cast<uint32_t>(id) / kChunkSlots];
  if (ref.unique()) return *ref;
  // Clone the slots and pack their edge-id lists in slot order, each list
  // exactly as long as it is; appends later move a list to the pool's end.
  const Chunk& src = *ref;
  Chunk* clone = NewChunk<Chunk>();
  ChunkRef owned(clone);
  size_t ids = 0;
  for (const Slot& s : src.slots)
    ids += static_cast<size_t>(s.in.len + s.out.len);
  clone->slots.reserve(src.slots.size());
  clone->pool.reserve(ids + ids / 4);
  auto pack = [&](const EdgeList& from, EdgeList& to) {
    to.off = static_cast<int32_t>(clone->pool.size());
    to.len = to.cap = from.len;
    clone->pool.insert(clone->pool.end(), src.pool.begin() + from.off,
                       src.pool.begin() + from.off + from.len);
  };
  for (const Slot& s : src.slots) {
    Slot& copy = clone->slots.emplace_back(s);
    pack(s.in, copy.in);
    pack(s.out, copy.out);
  }
  ref = std::move(owned);
  return *ref;
}

Graph::Slot& Graph::MutableSlot(OpId id) {
  FASTT_CHECK(id >= 0 && id < num_slots_);
  return MutableChunk(id).slots[static_cast<uint32_t>(id) % kChunkSlots];
}

void Graph::Append(Chunk& chunk, EdgeList& list, EdgeId e) {
  TaggedVector<EdgeId>& pool = chunk.pool;
  if (list.len == list.cap) {
    const int32_t cap = std::max(2, 2 * list.cap);
    if (pool.size() + static_cast<size_t>(cap) > pool.capacity()) {
      // The pool must grow anyway: repack every list in slot order into the
      // new buffer, which drops the space that moved lists and undone slots
      // left behind.
      size_t ids = static_cast<size_t>(cap);
      for (const Slot& s : chunk.slots)
        ids += static_cast<size_t>(s.in.cap + s.out.cap);
      TaggedVector<EdgeId> packed(pool.get_allocator());
      packed.reserve(2 * ids);
      for (Slot& s : chunk.slots) {
        for (EdgeList* l : {&s.in, &s.out}) {
          const size_t off = packed.size();
          packed.insert(packed.end(), pool.begin() + l->off,
                        pool.begin() + l->off + l->len);
          packed.resize(off + static_cast<size_t>(l->cap));
          l->off = static_cast<int32_t>(off);
        }
      }
      pool = std::move(packed);
    }
    if (static_cast<size_t>(list.off + list.cap) == pool.size()) {
      pool.resize(static_cast<size_t>(list.off + cap));  // grow in place
    } else {
      const size_t off = pool.size();
      pool.resize(off + static_cast<size_t>(cap));
      std::copy(pool.begin() + list.off, pool.begin() + list.off + list.len,
                pool.begin() + static_cast<std::ptrdiff_t>(off));
      list.off = static_cast<int32_t>(off);
    }
    list.cap = cap;
  }
  pool[static_cast<size_t>(list.off + list.len++)] = e;
}

// ---- Name index -------------------------------------------------------------

uint32_t Graph::NameHash(const std::string& name) {
  return static_cast<uint32_t>(std::hash<std::string_view>()(name));
}

size_t Graph::NameProbe(const std::string& name, uint32_t hash) const {
  const size_t mask = names_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const NameEntry& entry = names_[i];
    if (entry.id == kInvalidOp ||
        (entry.hash == hash && op(entry.id).name == name))
      return i;
  }
}

void Graph::NameInsert(OpId id, uint32_t hash) {
  // num_live_ already counts `id`; the table stays at most 3/4 full.
  if (4 * static_cast<size_t>(num_live_) > 3 * names_.size()) {
    TaggedVector<NameEntry> old(names_.get_allocator());
    old.swap(names_);
    names_.assign(std::max<size_t>(16, 2 * old.size()), NameEntry{});
    const size_t mask = names_.size() - 1;
    for (const NameEntry& entry : old) {
      if (entry.id == kInvalidOp) continue;
      size_t i = entry.hash & mask;
      while (names_[i].id != kInvalidOp) i = (i + 1) & mask;
      names_[i] = entry;
    }
  }
  const size_t mask = names_.size() - 1;
  size_t i = hash & mask;
  while (names_[i].id != kInvalidOp) i = (i + 1) & mask;
  names_[i] = {hash, id};
}

void Graph::NameErase(OpId id, uint32_t hash) {
  const size_t mask = names_.size() - 1;
  size_t hole = hash & mask;
  while (names_[hole].id != id) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home lies cyclically in (hole, j].
  for (size_t j = (hole + 1) & mask; names_[j].id != kInvalidOp;
       j = (j + 1) & mask) {
    const size_t home = names_[j].hash & mask;
    const bool stays = hole < j ? hole < home && home <= j
                                : hole < home || home <= j;
    if (stays) continue;
    names_[hole] = names_[j];
    hole = j;
  }
  names_[hole] = NameEntry{};
}

OpId Graph::FindOp(const std::string& name) const {
  if (names_.empty()) return kInvalidOp;
  return names_[NameProbe(name, NameHash(name))].id;
}

// ---- Mutators ---------------------------------------------------------------

OpId Graph::AddOp(Operation op) {
  FASTT_CHECK_MSG(!op.name.empty(), "operation must have a name");
  const uint32_t hash = NameHash(op.name);
  FASTT_CHECK_MSG(
      names_.empty() || names_[NameProbe(op.name, hash)].id == kInvalidOp,
      "duplicate op name: " + op.name);
  const OpId id = num_slots_;
  op.id = id;
  if (static_cast<uint32_t>(id) % kChunkSlots == 0) {
    ChunkRef fresh(NewChunk<Chunk>());
    chunks_.push_back(std::move(fresh));
  }
  MutableChunk(id).slots.push_back(Slot{std::move(op), {}, {}});
  ++num_slots_;
  ++num_live_;
  NameInsert(id, hash);
  Record(JournalEntry::Kind::kAddOp, id);
  return id;
}

EdgeId Graph::AddEdge(OpId src, OpId dst, int64_t bytes) {
  FASTT_CHECK(src >= 0 && src < num_slots());
  FASTT_CHECK(dst >= 0 && dst < num_slots());
  FASTT_CHECK_MSG(src != dst, "self-edge on op " + op(src).name);
  FASTT_CHECK_MSG(!op(src).dead && !op(dst).dead, "edge touches a dead op");
  Edge e;
  e.id = static_cast<EdgeId>(edges_.size());
  e.src = src;
  e.dst = dst;
  e.bytes = bytes >= 0 ? bytes : op(src).output_bytes();
  edges_.push_back(e);
  Chunk& from = MutableChunk(src);
  Append(from, from.slots[static_cast<uint32_t>(src) % kChunkSlots].out,
         e.id);
  Chunk& to = MutableChunk(dst);
  Append(to, to.slots[static_cast<uint32_t>(dst) % kChunkSlots].in, e.id);
  Record(JournalEntry::Kind::kAddEdge, e.id);
  return e.id;
}

void Graph::RemoveOp(OpId id) {
  if (op(id).dead) return;
  Slot& s = MutableSlot(id);
  s.op.dead = true;
  --num_live_;
  NameErase(id, NameHash(s.op.name));
  Record(JournalEntry::Kind::kKillOp, id);
  // RemoveEdge writes the edge array only, so the lists stay put.
  for (EdgeId e : out_edges(id)) RemoveEdge(e);
  for (EdgeId e : in_edges(id)) RemoveEdge(e);
}

void Graph::RemoveEdge(EdgeId id) {
  FASTT_CHECK(id >= 0 && id < num_edge_slots());
  // Only a live -> dead transition is journaled: undoing it must not revive
  // an edge that was already dead at the mark.
  if (edges_[id].dead) return;
  edges_[id].dead = true;
  Record(JournalEntry::Kind::kKillEdge, id);
}

void Graph::SetColocateWith(OpId id, OpId target) {
  Operation& o = mutable_op(id);
  Record(JournalEntry::Kind::kColocate, id, o.colocate_with);
  o.colocate_with = target;
}

Operation& Graph::mutable_op(OpId id) { return MutableSlot(id).op; }

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
      case JournalEntry::Kind::kAddOp: {
        // Every edit after this op's AddOp is already undone: it is the
        // last slot, live, with empty edge lists.
        FASTT_CHECK(e.id == num_slots_ - 1);
        TaggedVector<Slot>& slots = MutableChunk(e.id).slots;
        NameErase(e.id, NameHash(slots.back().op.name));
        slots.pop_back();
        if (slots.empty()) chunks_.pop_back();
        --num_slots_;
        --num_live_;
        break;
      }
      case JournalEntry::Kind::kAddEdge: {
        FASTT_CHECK(e.id == num_edge_slots() - 1);
        const Edge& edge = edges_.back();
        --MutableSlot(edge.src).out.len;
        --MutableSlot(edge.dst).in.len;
        edges_.pop_back();
        break;
      }
      case JournalEntry::Kind::kKillOp: {
        Slot& s = MutableSlot(e.id);
        s.op.dead = false;
        ++num_live_;
        NameInsert(e.id, NameHash(s.op.name));
        break;
      }
      case JournalEntry::Kind::kKillEdge:
        edges_[static_cast<size_t>(e.id)].dead = false;
        break;
      case JournalEntry::Kind::kColocate:
        MutableSlot(e.id).op.colocate_with = e.old;
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

// ---- Access -----------------------------------------------------------------

int64_t Graph::num_live_edges() const {
  int64_t n = 0;
  for (const Edge& e : edges_)
    if (!e.dead) ++n;
  return n;
}

std::vector<OpId> Graph::LiveOps() const {
  std::vector<OpId> out;
  out.reserve(static_cast<size_t>(num_live_));
  for (const ChunkRef& chunk : chunks_)
    for (const Slot& s : chunk->slots)
      if (!s.op.dead) out.push_back(s.op.id);
  return out;
}

std::vector<OpId> Graph::Preds(OpId id) const {
  std::vector<OpId> out;
  std::unordered_set<OpId> seen;
  for (EdgeId e : in_edges(id)) {
    const Edge& edge = edges_[e];
    if (edge.dead || op(edge.src).dead) continue;
    if (seen.insert(edge.src).second) out.push_back(edge.src);
  }
  return out;
}

std::vector<OpId> Graph::Succs(OpId id) const {
  std::vector<OpId> out;
  std::unordered_set<OpId> seen;
  for (EdgeId e : out_edges(id)) {
    const Edge& edge = edges_[e];
    if (edge.dead || op(edge.dst).dead) continue;
    if (seen.insert(edge.dst).second) out.push_back(edge.dst);
  }
  return out;
}

std::vector<OpId> Graph::TopoOrder() const {
  TaggedVector<int32_t> in_degree(static_cast<size_t>(num_slots()), 0);
  for (const Edge& e : edges_) {
    if (e.dead || op(e.src).dead || op(e.dst).dead) continue;
    ++in_degree[static_cast<size_t>(e.dst)];
  }
  std::deque<OpId> ready;
  for (const ChunkRef& chunk : chunks_)
    for (const Slot& s : chunk->slots)
      if (!s.op.dead && in_degree[static_cast<size_t>(s.op.id)] == 0)
        ready.push_back(s.op.id);

  std::vector<OpId> order;
  order.reserve(static_cast<size_t>(num_live_));
  while (!ready.empty()) {
    const OpId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (EdgeId e : out_edges(id)) {
      const Edge& edge = edges_[e];
      if (edge.dead || op(edge.dst).dead) continue;
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
  for (const ChunkRef& chunk : chunks_) {
    for (const Slot& s : chunk->slots) {
      const Operation& op = s.op;
      if (op.dead) continue;
      FASTT_CHECK_MSG(names.insert(op.name).second,
                      "duplicate live op name: " + op.name);
      FASTT_CHECK(op.flops >= 0.0);
      FASTT_CHECK(op.param_bytes >= 0);
    }
  }
  for (const Edge& e : edges_) {
    if (e.dead) continue;
    FASTT_CHECK_MSG(!op(e.src).dead && !op(e.dst).dead,
                    "live edge touches dead op");
    FASTT_CHECK(e.bytes >= 0);
  }
  FASTT_CHECK(IsAcyclic());
}

TaggedVector<double> Graph::LongestPathFromExit(
    const std::function<double(const Operation&)>& node_w,
    const std::function<double(const Edge&)>& edge_w) const {
  TaggedVector<double> value(static_cast<size_t>(num_slots()), 0.0);
  const std::vector<OpId> order = TopoOrder();
  // Reverse topological sweep: successors are finalized before predecessors.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const OpId id = *it;
    double best_succ = 0.0;
    for (EdgeId e : out_edges(id)) {
      const Edge& edge = edges_[e];
      if (edge.dead || op(edge.dst).dead) continue;
      best_succ = std::max(best_succ,
                           edge_w(edge) + value[static_cast<size_t>(edge.dst)]);
    }
    value[static_cast<size_t>(id)] = node_w(op(id)) + best_succ;
  }
  return value;
}

double Graph::TotalFlops() const {
  double total = 0.0;
  for (const ChunkRef& chunk : chunks_)
    for (const Slot& s : chunk->slots)
      if (!s.op.dead) total += s.op.flops;
  return total;
}

int64_t Graph::TotalParamBytes() const {
  int64_t total = 0;
  for (const ChunkRef& chunk : chunks_)
    for (const Slot& s : chunk->slots)
      if (!s.op.dead) total += s.op.param_bytes;
  return total;
}

}  // namespace fastt
