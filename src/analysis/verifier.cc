#include "analysis/verifier.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "graph/memory.h"
#include "obs/json.h"
#include "util/strings.h"

namespace fastt {
namespace {

// Collects findings with a per-rule cap: every finding counts toward the
// error/warning totals, but only the first `max_per_rule` per rule are kept
// verbatim; the rest collapse into one summary diagnostic so a systemic bug
// (say, every op unplaced) does not bury the other rules' findings.
class Reporter {
 public:
  Reporter(VerifyResult* result, int max_per_rule)
      : result_(result), max_per_rule_(max_per_rule) {}

  void Add(const std::string& rule_id, VerifySeverity severity, OpId op,
           EdgeId edge, std::string message, std::string fix_hint) {
    if (severity == VerifySeverity::kError)
      ++result_->errors;
    else
      ++result_->warnings;
    const int seen = ++per_rule_[rule_id];
    if (seen > max_per_rule_) {
      ++suppressed_[rule_id];
      severities_[rule_id] = severity;
      return;
    }
    Diagnostic diag;
    diag.rule_id = rule_id;
    diag.severity = severity;
    diag.op = op;
    diag.edge = edge;
    diag.message = std::move(message);
    diag.fix_hint = std::move(fix_hint);
    result_->diagnostics.push_back(std::move(diag));
  }

  void BeginRule() { ++result_->rules_checked; }

  // Emits one summary diagnostic per capped rule.
  void Flush() {
    for (const auto& [rule, count] : suppressed_) {
      Diagnostic diag;
      diag.rule_id = rule;
      diag.severity = severities_[rule];
      diag.message = StrFormat(
          "%d additional finding%s suppressed (already counted above)", count,
          count == 1 ? "" : "s");
      diag.fix_hint = "fix the reported instances first; the rest usually "
                      "share the cause";
      result_->diagnostics.push_back(std::move(diag));
    }
  }

 private:
  VerifyResult* result_;
  int max_per_rule_;
  std::map<std::string, int> per_rule_;
  std::map<std::string, int> suppressed_;
  std::map<std::string, VerifySeverity> severities_;
};

// Extent of the dimension a split partitioned, as recorded on the op.
int64_t ExtentOf(const Operation& op, SplitDim dim) {
  return dim == SplitDim::kBatch ? op.batch
         : dim == SplitDim::kChannel ? op.channels
                                     : 0;
}

// Slot holding an op of this name, dead or alive (Graph::FindOp hides
// tombstones, but split parents ARE tombstones).
OpId FindSlotByName(const Graph& g, const std::string& name) {
  for (OpId id = 0; id < g.num_slots(); ++id)
    if (g.op(id).name == name) return id;
  return kInvalidOp;
}

// Parses "<prefix>/iter<k>/..." names produced by UnrollLoop. Returns true
// and fills (loop prefix, iteration) when the name has such a segment.
bool LoopIteration(const std::string& name, std::string* prefix,
                   int64_t* iteration) {
  size_t pos = 0;
  while ((pos = name.find("/iter", pos)) != std::string::npos) {
    size_t digit = pos + 5;
    size_t end = digit;
    while (end < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[end])) != 0)
      ++end;
    if (end > digit && end < name.size() && name[end] == '/') {
      *prefix = name.substr(0, pos);
      *iteration = std::atoll(name.substr(digit, end - digit).c_str());
      return true;
    }
    pos = end;
  }
  return false;
}

// ---- Rules -----------------------------------------------------------------

void CheckAcyclic(const Graph& g, Reporter& report) {
  report.BeginRule();
  if (g.IsAcyclic()) return;
  // Name an op on a cycle: peel ops with in-degree 0 repeatedly; whatever
  // remains is cyclic.
  std::vector<int> indeg(static_cast<size_t>(g.num_slots()), 0);
  std::vector<OpId> live = g.LiveOps();
  for (OpId id : live)
    indeg[static_cast<size_t>(id)] = static_cast<int>(g.Preds(id).size());
  std::vector<OpId> queue;
  for (OpId id : live)
    if (indeg[static_cast<size_t>(id)] == 0) queue.push_back(id);
  size_t removed = 0;
  while (!queue.empty()) {
    const OpId id = queue.back();
    queue.pop_back();
    ++removed;
    for (OpId s : g.Succs(id))
      if (--indeg[static_cast<size_t>(s)] == 0) queue.push_back(s);
  }
  OpId witness = kInvalidOp;
  for (OpId id : live)
    if (indeg[static_cast<size_t>(id)] > 0) {
      witness = id;
      break;
    }
  report.Add("graph.acyclic", VerifySeverity::kError, witness, -1,
             StrFormat("graph has a cycle through %zu op(s)%s%s",
                       live.size() - removed,
                       witness != kInvalidOp ? ", e.g. " : "",
                       witness != kInvalidOp ? g.op(witness).name.c_str() : ""),
             "a rewrite wired glue edges backwards; check the last "
             "SplitOperation's split->sub->concat direction");
}

// True when `name`'s last path segment marks it as SplitOperation-produced
// glue: "<parent>/split<k>" or "<parent>/concat". Model builders also use
// kSplit/kConcat ops (timestep slicing, inception merges) but under their
// own names; those only get the relaxed connectivity check.
bool IsRewriteGlueName(const std::string& name, bool split) {
  const size_t slash = name.rfind('/');
  if (slash == std::string::npos) return false;
  const std::string last = name.substr(slash + 1);
  if (!split) return last == "concat";
  if (last.size() < 6 || last.compare(0, 5, "split") != 0) return false;
  for (size_t i = 5; i < last.size(); ++i)
    if (std::isdigit(static_cast<unsigned char>(last[i])) == 0) return false;
  return true;
}

void CheckGlueNodes(const Graph& g, Reporter& report) {
  report.BeginRule();  // graph.glue.split
  report.BeginRule();  // graph.glue.concat
  for (OpId id : g.LiveOps()) {
    const Operation& op = g.op(id);
    if (op.type != OpType::kSplit && op.type != OpType::kConcat) continue;
    int live_in = 0;
    int live_out = 0;
    for (EdgeId e : g.in_edges(id))
      if (!g.edge(e).dead && !g.op(g.edge(e).src).dead) ++live_in;
    for (EdgeId e : g.out_edges(id))
      if (!g.edge(e).dead && !g.op(g.edge(e).dst).dead) ++live_out;
    const bool rewrite_glue =
        IsRewriteGlueName(op.name, op.type == OpType::kSplit);
    // Rewrite glue gets the full Alg. 2 arity contract; builder-made
    // split/concat ops (timestep slices can be 1->1) just must be wired.
    const int min_out = rewrite_glue && op.type == OpType::kSplit ? 2 : 1;
    const int min_in = rewrite_glue && op.type == OpType::kConcat ? 2 : 1;
    if (op.type == OpType::kSplit && (live_in != 1 || live_out < min_out)) {
      report.Add(
          "graph.glue.split", VerifySeverity::kError, id, -1,
          StrFormat("split node %s has %d producer(s) and %d consumer(s); "
                    "expected exactly 1 producer and >= %d consumer(s)",
                    op.name.c_str(), live_in, live_out, min_out),
          "the rewrite that created this node lost an edge; a split must "
          "fan one predecessor tensor out to every sub-op");
    } else if (op.type == OpType::kConcat &&
               (live_in < min_in || live_out < 1)) {
      report.Add(
          "graph.glue.concat", VerifySeverity::kError, id, -1,
          StrFormat("concat node %s has %d producer(s) and %d consumer(s); "
                    "expected >= %d producer(s) and >= 1 consumer",
                    op.name.c_str(), live_in, live_out, min_in),
          "a concat merges every sub-op output for the original successors; "
          "orphaned concats mean the rewrite tombstoned the wrong edges");
    }
  }
}

void CheckSplitDecisions(const Graph& g, const Strategy& strategy,
                         Reporter& report) {
  report.BeginRule();  // strategy.split.op
  report.BeginRule();  // strategy.split.shape
  for (const SplitDecision& split : strategy.splits) {
    if (split.dim == SplitDim::kNone || split.num_splits < 2) {
      report.Add("strategy.split.op", VerifySeverity::kError, kInvalidOp, -1,
                 StrFormat("split of %s along %s x%d is not a partition",
                           split.op_name.c_str(), SplitDimName(split.dim),
                           split.num_splits),
                 "split decisions need a real dimension and >= 2 parts");
      continue;
    }
    const OpId parent = FindSlotByName(g, split.op_name);
    if (parent == kInvalidOp) {
      report.Add("strategy.split.op", VerifySeverity::kError, kInvalidOp, -1,
                 StrFormat("split names op %s which does not exist in the "
                           "graph", split.op_name.c_str()),
                 "the split list and the rewritten graph got out of sync");
      continue;
    }
    int64_t extent_sum = 0;
    bool parts_ok = true;
    bool resplit = false;
    for (int i = 0; i < split.num_splits; ++i) {
      const std::string part_name =
          StrFormat("%s/part%d", split.op_name.c_str(), i);
      const OpId part = FindSlotByName(g, part_name);
      if (part == kInvalidOp) {
        report.Add("strategy.split.shape", VerifySeverity::kError, parent, -1,
                   StrFormat("sub-op %s of the %s split is missing",
                             part_name.c_str(), split.op_name.c_str()),
                   "SplitOperation creates exactly num_splits /partN ops; "
                   "a later rewrite removed one without updating the list");
        parts_ok = false;
        continue;
      }
      if (g.op(part).dead) {
        // Legal only if that part was itself split by a later decision.
        const bool chained = std::any_of(
            strategy.splits.begin(), strategy.splits.end(),
            [&](const SplitDecision& other) {
              return other.op_name == part_name;
            });
        if (!chained) {
          report.Add("strategy.split.shape", VerifySeverity::kError, part, -1,
                     StrFormat("sub-op %s is tombstoned but no later split "
                               "decision explains it", part_name.c_str()),
                     "dangling tombstone: the sub-op died outside the "
                     "recorded rewrite chain");
          parts_ok = false;
        }
        resplit = true;
        continue;
      }
      extent_sum += ExtentOf(g.op(part), split.dim);
    }
    const int64_t parent_extent = ExtentOf(g.op(parent), split.dim);
    if (parts_ok && !resplit && parent_extent > 0 &&
        extent_sum != parent_extent) {
      report.Add(
          "strategy.split.shape", VerifySeverity::kError, parent, -1,
          StrFormat("%s parts cover %s extent %lld of parent extent %lld",
                    split.op_name.c_str(), SplitDimName(split.dim),
                    static_cast<long long>(extent_sum),
                    static_cast<long long>(parent_extent)),
          "sub-op extents must tile the parent dimension exactly; check the "
          "size_i = extent/n + remainder arithmetic in the rewrite");
    }
  }
}

void CheckPlacement(const Graph& g, const Strategy& strategy,
                    const Cluster& cluster, Reporter& report) {
  const std::vector<DeviceId>& placement = strategy.placement;
  report.BeginRule();  // place.size
  if (placement.size() != static_cast<size_t>(g.num_slots())) {
    report.Add("place.size", VerifySeverity::kError, kInvalidOp, -1,
               StrFormat("placement has %zu entries for %d op slots",
                         placement.size(), g.num_slots()),
               "the placement vector must be indexed by slot id; a rewrite "
               "added ops without extending it");
  }
  report.BeginRule();  // place.total
  report.BeginRule();  // place.device
  for (OpId id : g.LiveOps()) {
    const size_t slot = static_cast<size_t>(id);
    const DeviceId device =
        slot < placement.size() ? placement[slot] : kInvalidDevice;
    if (device == kInvalidDevice) {
      report.Add("place.total", VerifySeverity::kError, id, -1,
                 StrFormat("live op %s has no device", g.op(id).name.c_str()),
                 "every live op must be placed; kInvalidDevice is only for "
                 "tombstoned slots");
    } else if (device < 0 || device >= cluster.num_devices()) {
      report.Add("place.device", VerifySeverity::kError, id, -1,
                 StrFormat("op %s is placed on device %d but the cluster has "
                           "devices 0..%d",
                           g.op(id).name.c_str(), device,
                           cluster.num_devices() - 1),
                 "device ids must index the cluster the strategy targets; "
                 "was this strategy computed for a different cluster?");
    }
  }
  report.BeginRule();  // place.colocate
  for (OpId id : g.LiveOps()) {
    const Operation& op = g.op(id);
    if (op.colocate_with == kInvalidOp) continue;
    if (op.colocate_with < 0 || op.colocate_with >= g.num_slots()) continue;
    if (g.op(op.colocate_with).dead) continue;
    const size_t a = static_cast<size_t>(id);
    const size_t b = static_cast<size_t>(op.colocate_with);
    if (a >= placement.size() || b >= placement.size()) continue;
    if (placement[a] != kInvalidDevice && placement[b] != kInvalidDevice &&
        placement[a] != placement[b]) {
      report.Add(
          "place.colocate", VerifySeverity::kError, id, -1,
          StrFormat("op %s must colocate with %s but sits on gpu%d vs gpu%d",
                    op.name.c_str(), g.op(op.colocate_with).name.c_str(),
                    placement[a], placement[b]),
          "optimizer updates run where the parameters live; the placement "
          "pass must resolve colocate_with after placing the referent");
    }
  }
}

// Returns per-slot order positions (-1 = not scheduled); records
// order.complete findings. Position data is only meaningful when the rule
// passed (result flag).
bool CheckOrderComplete(const Graph& g, const Strategy& strategy,
                        Reporter& report, std::vector<int64_t>* position) {
  report.BeginRule();  // order.complete
  position->assign(static_cast<size_t>(g.num_slots()), -1);
  bool ok = true;
  for (size_t i = 0; i < strategy.execution_order.size(); ++i) {
    const OpId id = strategy.execution_order[i];
    if (id < 0 || id >= g.num_slots() || g.op(id).dead) {
      report.Add("order.complete", VerifySeverity::kError, id, -1,
                 StrFormat("order entry %zu references %s op id %d", i,
                           id >= 0 && id < g.num_slots() ? "a tombstoned"
                                                         : "an out-of-range",
                           id),
                 "the execution order must list live ops of THIS graph");
      ok = false;
      continue;
    }
    if ((*position)[static_cast<size_t>(id)] != -1) {
      report.Add("order.complete", VerifySeverity::kError, id, -1,
                 StrFormat("op %s appears twice in the execution order "
                           "(positions %lld and %zu)",
                           g.op(id).name.c_str(),
                           static_cast<long long>(
                               (*position)[static_cast<size_t>(id)]),
                           i),
                 "priorities come from order positions; duplicates make the "
                 "priority assignment ambiguous");
      ok = false;
      continue;
    }
    (*position)[static_cast<size_t>(id)] = static_cast<int64_t>(i);
  }
  for (OpId id : g.LiveOps()) {
    if ((*position)[static_cast<size_t>(id)] == -1) {
      report.Add("order.complete", VerifySeverity::kError, id, -1,
                 StrFormat("live op %s is missing from the execution order",
                           g.op(id).name.c_str()),
                 "unlisted ops get the lowest priority, which silently "
                 "serializes them last; the order must be total");
      ok = false;
    }
  }
  return ok;
}

void CheckOrderDeps(const Graph& g, const std::vector<int64_t>& position,
                    Reporter& report) {
  report.BeginRule();  // order.deps
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.dead || g.op(edge.src).dead || g.op(edge.dst).dead) continue;
    const int64_t src_pos = position[static_cast<size_t>(edge.src)];
    const int64_t dst_pos = position[static_cast<size_t>(edge.dst)];
    if (src_pos < 0 || dst_pos < 0) continue;  // order.complete already fired
    if (src_pos >= dst_pos) {
      report.Add(
          "order.deps", VerifySeverity::kError, edge.dst, e,
          StrFormat("%s is ordered at position %lld but consumes %s at "
                    "position %lld",
                    g.op(edge.dst).name.c_str(),
                    static_cast<long long>(dst_pos),
                    g.op(edge.src).name.c_str(),
                    static_cast<long long>(src_pos)),
          "a priority-enforcing executor can deadlock when the order "
          "contradicts data deps; the order must be a topological extension");
    }
  }
}

void CheckLoopStructure(const Graph& g, Reporter& report) {
  report.BeginRule();  // loop.iter
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.dead || g.op(edge.src).dead || g.op(edge.dst).dead) continue;
    const Operation& src = g.op(edge.src);
    const Operation& dst = g.op(edge.dst);
    // Gradient flow legitimately runs from later to earlier iterations.
    if (src.is_backward || dst.is_backward) continue;
    std::string src_prefix;
    std::string dst_prefix;
    int64_t src_iter = 0;
    int64_t dst_iter = 0;
    if (!LoopIteration(src.name, &src_prefix, &src_iter)) continue;
    if (!LoopIteration(dst.name, &dst_prefix, &dst_iter)) continue;
    if (src_prefix != dst_prefix) continue;
    if (dst_iter < src_iter) {
      report.Add(
          "loop.iter", VerifySeverity::kError, edge.dst, e,
          StrFormat("loop %s: forward edge from iteration %lld (%s) back to "
                    "iteration %lld (%s)",
                    src_prefix.c_str(), static_cast<long long>(src_iter),
                    src.name.c_str(), static_cast<long long>(dst_iter),
                    dst.name.c_str()),
          "UnrollLoop must thread carried values strictly forward; a "
          "backward edge means the unrolling re-introduced the cycle");
    }
  }
}

void CheckMemory(const Graph& g, const Strategy& strategy,
                 const Cluster& cluster, const std::vector<int64_t>& position,
                 double headroom, Reporter& report) {
  report.BeginRule();  // mem.capacity
  report.BeginRule();  // mem.headroom
  const std::vector<DeviceId>& placement = strategy.placement;
  const size_t devices = static_cast<size_t>(cluster.num_devices());

  // Static part: parameters live for the whole iteration.
  std::vector<int64_t> occupancy(devices, 0);
  for (OpId id : g.LiveOps()) {
    const DeviceId d = placement[static_cast<size_t>(id)];
    if (d >= 0 && static_cast<size_t>(d) < devices)
      occupancy[static_cast<size_t>(d)] += g.op(id).resident_bytes();
  }
  std::vector<int64_t> peak = occupancy;

  // Dynamic part: walk the declared order; an output occupies its producer's
  // device from execution until its last consumer has executed. (Remote
  // consumers additionally stage a copy; that is what the scheduler's
  // headroom is for, so it is deliberately not charged here.)
  std::vector<int64_t> last_use(static_cast<size_t>(g.num_slots()), -1);
  for (OpId id : g.LiveOps())
    for (OpId s : g.Succs(id))
      last_use[static_cast<size_t>(id)] = std::max(
          last_use[static_cast<size_t>(id)], position[static_cast<size_t>(s)]);
  // Producers to free after each position.
  std::vector<std::vector<OpId>> frees(strategy.execution_order.size());
  for (OpId id : g.LiveOps())
    if (last_use[static_cast<size_t>(id)] >= 0)
      frees[static_cast<size_t>(last_use[static_cast<size_t>(id)])].push_back(
          id);

  for (size_t p = 0; p < strategy.execution_order.size(); ++p) {
    const OpId id = strategy.execution_order[p];
    const Operation& op = g.op(id);
    const DeviceId d = placement[static_cast<size_t>(id)];
    if (d < 0 || static_cast<size_t>(d) >= devices) continue;
    const bool retained = last_use[static_cast<size_t>(id)] >= 0;
    const int64_t output = op.output_bytes();
    // While executing: workspace plus the output buffer being produced.
    occupancy[static_cast<size_t>(d)] += op.temp_bytes + output;
    peak[static_cast<size_t>(d)] = std::max(peak[static_cast<size_t>(d)],
                                            occupancy[static_cast<size_t>(d)]);
    occupancy[static_cast<size_t>(d)] -= op.temp_bytes;
    if (!retained) occupancy[static_cast<size_t>(d)] -= output;
    for (OpId producer : frees[p]) {
      const DeviceId pd = placement[static_cast<size_t>(producer)];
      if (pd >= 0 && static_cast<size_t>(pd) < devices)
        occupancy[static_cast<size_t>(pd)] -= g.op(producer).output_bytes();
    }
  }

  for (size_t d = 0; d < devices; ++d) {
    const int64_t usable = cluster.device(static_cast<DeviceId>(d))
                               .usable_bytes();
    if (peak[d] > usable) {
      report.Add(
          "mem.capacity", VerifySeverity::kError, kInvalidOp, -1,
          StrFormat("gpu%zu peaks at %s under the declared order but only %s "
                    "is usable",
                    d, HumanBytes(static_cast<double>(peak[d])).c_str(),
                    HumanBytes(static_cast<double>(usable)).c_str()),
          "this placement will OOM; rebalance the heaviest resident ops or "
          "split them");
    } else if (static_cast<double>(peak[d]) >
               headroom * static_cast<double>(usable)) {
      report.Add(
          "mem.headroom", VerifySeverity::kWarning, kInvalidOp, -1,
          StrFormat("gpu%zu peaks at %s, inside the %.0f%% scheduler "
                    "headroom of %s usable",
                    d, HumanBytes(static_cast<double>(peak[d])).c_str(),
                    100.0 * headroom,
                    HumanBytes(static_cast<double>(usable)).c_str()),
          "transfer staging and transient gradients are not in this "
          "estimate; a real run may still OOM");
    }
  }
}

// One finding per strategy, not per edge: transfers over pairs the model
// has never profiled are the paper's expected exploration state (priced at
// 0 until a profiled round covers them), so thousands of per-edge warnings
// would only bury the other rules.
void CheckCommModel(const Graph& g, const Strategy& strategy,
                    const Cluster& cluster, const CommCostModel* comm,
                    Reporter& report) {
  if (comm == nullptr || comm->num_pairs() == 0) return;
  report.BeginRule();  // comm.model
  enum PairState : uint8_t { kUnseen, kPriced, kUnpriced };
  const DeviceId n = cluster.num_devices();
  const auto pair_index = [n](DeviceId src, DeviceId dst) {
    return static_cast<size_t>(src) * static_cast<size_t>(n) +
           static_cast<size_t>(dst);
  };
  std::vector<PairState> pairs(
      static_cast<size_t>(n) * static_cast<size_t>(n), kUnseen);
  const std::vector<DeviceId>& placement = strategy.placement;
  int64_t transfers = 0;
  int unpriced_pairs = 0;
  EdgeId first = -1;
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.dead || g.op(edge.src).dead || g.op(edge.dst).dead) continue;
    const DeviceId src = placement[static_cast<size_t>(edge.src)];
    const DeviceId dst = placement[static_cast<size_t>(edge.dst)];
    // Off-cluster devices are place.device's finding.
    if (src == dst || src < 0 || dst < 0 || src >= n || dst >= n) continue;
    PairState& state = pairs[pair_index(src, dst)];
    if (state == kUnseen) {
      state = comm->KnowsPair(src, dst) ? kPriced : kUnpriced;
      if (state == kUnpriced) ++unpriced_pairs;
    }
    if (state == kUnpriced && transfers++ == 0) first = e;
  }
  if (transfers == 0) return;
  constexpr int kListedPairs = 4;
  std::string listed;
  int shown = 0;
  for (DeviceId src = 0; src < n && shown < kListedPairs; ++src) {
    for (DeviceId dst = 0; dst < n && shown < kListedPairs; ++dst) {
      if (pairs[pair_index(src, dst)] != kUnpriced) continue;
      listed += StrFormat("%sgpu%d -> gpu%d", shown > 0 ? ", " : "", src,
                          dst);
      ++shown;
    }
  }
  if (unpriced_pairs > shown)
    listed += StrFormat(" and %d more", unpriced_pairs - shown);
  const Edge& edge = g.edge(first);
  report.Add(
      "comm.model", VerifySeverity::kWarning, edge.dst, first,
      StrFormat("%lld transfer%s cross %d device pair%s the communication "
                "model has never profiled (%s); first: %s -> %s",
                static_cast<long long>(transfers), transfers == 1 ? "" : "s",
                unpriced_pairs, unpriced_pairs == 1 ? "" : "s",
                listed.c_str(), g.op(edge.src).name.c_str(),
                g.op(edge.dst).name.c_str()),
      "the scheduler priced these transfers at 0 (explore); expect the "
      "first profiled round to correct the schedule");
}

}  // namespace

const char* VerifySeverityName(VerifySeverity severity) {
  return severity == VerifySeverity::kError ? "error" : "warning";
}

std::string VerifyResult::first_error_rule() const {
  for (const Diagnostic& diag : diagnostics)
    if (diag.severity == VerifySeverity::kError) return diag.rule_id;
  return "";
}

VerifyResult VerifyStrategy(const Graph& graph, const Strategy& strategy,
                            const Cluster& cluster, const CommCostModel* comm,
                            const VerifierOptions& options) {
  VerifyResult result;
  Reporter report(&result, options.max_per_rule);

  CheckAcyclic(graph, report);
  CheckGlueNodes(graph, report);
  CheckSplitDecisions(graph, strategy, report);
  CheckPlacement(graph, strategy, cluster, report);
  std::vector<int64_t> position;
  const bool order_ok = CheckOrderComplete(graph, strategy, report, &position);
  if (order_ok) CheckOrderDeps(graph, position, report);
  CheckLoopStructure(graph, report);

  if (!options.cheap_only) {
    // The memory walk needs a valid total order and a full-size placement.
    if (order_ok &&
        strategy.placement.size() == static_cast<size_t>(graph.num_slots())) {
      CheckMemory(graph, strategy, cluster, position, options.memory_headroom,
                  report);
    }
    if (strategy.placement.size() == static_cast<size_t>(graph.num_slots()))
      CheckCommModel(graph, strategy, cluster, comm, report);
  }

  report.Flush();
  return result;
}

std::string RenderDiagnostics(const Graph& graph, const VerifyResult& result) {
  std::string out;
  for (const Diagnostic& diag : result.diagnostics) {
    out += StrFormat("%-7s %-20s %s\n", VerifySeverityName(diag.severity),
                     diag.rule_id.c_str(), diag.message.c_str());
    if (!diag.fix_hint.empty())
      out += StrFormat("        %-20s hint: %s\n", "", diag.fix_hint.c_str());
  }
  out += StrFormat(
      "verification: %s — %d error(s), %d warning(s) over %d rule(s) on %s "
      "(%d live ops)\n",
      result.ok() ? "PASS" : "FAIL", result.errors, result.warnings,
      result.rules_checked, graph.name().c_str(), graph.num_live_ops());
  return out;
}

std::string DiagnosticsToJson(const Graph& graph, const VerifyResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("fastt_verify").Int(1);
  w.Key("graph").String(graph.name());
  w.Key("live_ops").Int(graph.num_live_ops());
  w.Key("errors").Int(result.errors);
  w.Key("warnings").Int(result.warnings);
  w.Key("rules_checked").Int(result.rules_checked);
  w.Key("ok").Bool(result.ok());
  w.Key("diagnostics").BeginArray();
  for (const Diagnostic& diag : result.diagnostics) {
    w.BeginObject();
    w.Key("rule_id").String(diag.rule_id);
    w.Key("severity").String(VerifySeverityName(diag.severity));
    w.Key("op").Int(diag.op);
    if (diag.op != kInvalidOp && diag.op < graph.num_slots())
      w.Key("op_name").String(graph.op(diag.op).name);
    w.Key("edge").Int(diag.edge);
    w.Key("message").String(diag.message);
    w.Key("fix_hint").String(diag.fix_hint);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace fastt
