#include "graph/rewrite.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/strings.h"

namespace fastt {
namespace {

// Extent of the splittable dimension for this op.
int64_t SplitExtent(const Operation& op, SplitDim dim) {
  switch (dim) {
    case SplitDim::kBatch:
      return op.batch;
    case SplitDim::kChannel:
      return op.channels;
    case SplitDim::kNone:
      return 0;
  }
  return 0;
}

// Index of the output-shape axis corresponding to the split dimension, or -1
// if the shape does not expose it. Model builders emit NHWC conv tensors and
// [rows, cols] matmul tensors, so batch is axis 0 and channel the last axis.
int64_t SplitAxis(const Operation& op, SplitDim dim) {
  if (op.output_shape.rank() == 0) return -1;
  if (dim == SplitDim::kBatch) {
    return op.output_shape.dim(0) > 1 ? 0 : -1;
  }
  const int64_t last = op.output_shape.rank() - 1;
  return op.output_shape.dim(last) > 1 ? last : -1;
}

}  // namespace

std::string GlueCostKey(OpType type, int64_t bytes) {
  int bucket = 0;
  while ((int64_t{1} << bucket) < std::max<int64_t>(bytes, 1)) ++bucket;
  return StrFormat("%s#2^%d", OpTypeName(type), bucket);
}

bool CanSplit(const Graph& g, OpId op_id, SplitDim dim, int n) {
  if (n < 2) return false;
  const Operation& op = g.op(op_id);
  if (op.dead) return false;
  // Concat cannot express the sum a batch-reducing op would need.
  if (dim == SplitDim::kBatch && op.reduces_batch) return false;
  const auto dims = ParallelizableDims(op.type);
  if (std::find(dims.begin(), dims.end(), dim) == dims.end()) return false;
  return SplitExtent(op, dim) >= n;
}

SplitResult SplitOperation(Graph& g, OpId op_id, SplitDim dim, int n) {
  FASTT_CHECK_MSG(CanSplit(g, op_id, dim, n),
                  "invalid split of " + g.op(op_id).name);
  // Copy: the reference would dangle once we add ops.
  const Operation op = g.op(op_id);
  const int64_t extent = SplitExtent(op, dim);

  // Snapshot live incident edges before tombstoning.
  struct InEdge {
    OpId pre;
    int64_t bytes;
  };
  std::vector<InEdge> in;
  for (EdgeId e : g.in_edges(op_id)) {
    const Edge& edge = g.edge(e);
    if (!edge.dead && !g.op(edge.src).dead)
      in.push_back({edge.src, edge.bytes});
  }
  struct OutEdge {
    OpId suc;
    int64_t bytes;
  };
  std::vector<OutEdge> out;
  for (EdgeId e : g.out_edges(op_id)) {
    const Edge& edge = g.edge(e);
    if (!edge.dead && !g.op(edge.dst).dead)
      out.push_back({edge.dst, edge.bytes});
  }

  g.RemoveOp(op_id);

  SplitResult result;

  // ---- n sub-operations --------------------------------------------------
  const int64_t axis = SplitAxis(op, dim);
  for (int i = 0; i < n; ++i) {
    const int64_t size_i = extent / n + (i < extent % n ? 1 : 0);
    const double frac = static_cast<double>(size_i) /
                        static_cast<double>(extent);
    Operation sub = op;
    sub.id = kInvalidOp;
    sub.dead = false;
    sub.name = StrFormat("%s/part%d", op.name.c_str(), i);
    sub.flops = op.flops * frac;
    sub.bytes_touched =
        static_cast<int64_t>(static_cast<double>(op.bytes_touched) * frac);
    if (axis >= 0) {
      const int64_t new_dim = std::max<int64_t>(
          1, static_cast<int64_t>(
                 std::llround(static_cast<double>(op.output_shape.dim(axis)) *
                              frac)));
      sub.output_shape = op.output_shape.WithDim(axis, new_dim);
    }
    if (dim == SplitDim::kBatch) {
      sub.batch = size_i;
      // Weights replicated into each partition.
      sub.param_bytes = op.param_bytes;
    } else {
      sub.channels = size_i;
      sub.param_bytes = op.param_bytes / n;
    }
    sub.temp_bytes =
        static_cast<int64_t>(static_cast<double>(op.temp_bytes) * frac);
    // All equal-sized partitions of the same parent share a cost-model entry.
    sub.cost_key = StrFormat("%s#%s/%d", op.CostKey().c_str(),
                             SplitDimName(dim), n);
    sub.cost_basis_key = op.CostKey();
    sub.cost_scale = frac;
    result.sub_ops.push_back(g.AddOp(std::move(sub)));
  }

  // ---- split node per predecessor edge ------------------------------------
  for (size_t k = 0; k < in.size(); ++k) {
    Operation sp;
    sp.name = StrFormat("%s/split%zu", op.name.c_str(), k);
    sp.type = OpType::kSplit;
    sp.output_shape = TensorShape{in[k].bytes / 4};  // flat f32 view
    sp.dtype = DType::kF32;
    sp.bytes_touched = in[k].bytes;
    sp.cost_key = GlueCostKey(OpType::kSplit, in[k].bytes);
    sp.is_backward = op.is_backward;
    const OpId sp_id = g.AddOp(std::move(sp));
    result.split_nodes.push_back(sp_id);
    g.AddEdge(in[k].pre, sp_id, in[k].bytes);
    for (int i = 0; i < n; ++i) {
      // Batch split partitions the input; channel split broadcasts it whole.
      const int64_t part_bytes =
          dim == SplitDim::kBatch ? in[k].bytes / n : in[k].bytes;
      g.AddEdge(sp_id, result.sub_ops[static_cast<size_t>(i)], part_bytes);
    }
  }

  // Ops colocated with the vanished original follow its first partition.
  for (OpId id = 0; id < g.num_slots(); ++id) {
    const Operation& o = g.op(id);
    if (!o.dead && o.colocate_with == op_id)
      g.SetColocateWith(id, result.sub_ops.front());
  }

  // ---- concat feeding the successors --------------------------------------
  // Alg. 2 creates a concat per successor; a single shared concat is
  // semantically identical and cheaper, so we emit one.
  if (!out.empty()) {
    Operation con;
    con.name = StrFormat("%s/concat", op.name.c_str());
    con.type = OpType::kConcat;
    con.output_shape = op.output_shape;
    con.dtype = op.dtype;
    con.bytes_touched = op.output_bytes();
    con.cost_key = GlueCostKey(OpType::kConcat, op.output_bytes());
    con.is_backward = op.is_backward;
    result.concat_node = g.AddOp(std::move(con));
    for (OpId sub : result.sub_ops)
      g.AddEdge(sub, result.concat_node, g.op(sub).output_bytes());
    for (const OutEdge& oe : out)
      g.AddEdge(result.concat_node, oe.suc, oe.bytes);
  }

  return result;
}

}  // namespace fastt
