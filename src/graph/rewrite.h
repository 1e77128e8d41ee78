// Graph rewrites.
//
// SplitOperation is the function of the same name in the paper's Alg. 2: it
// replaces one operation with n sub-operations partitioned along a
// parallelizable dimension, wiring split nodes on every predecessor edge and
// a concatenate node in front of the successors. Splitting preserves training
// semantics (the rewrite is purely structural), so there is no accuracy cost
// — only the compute/communication trade-off the scheduler weighs.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace fastt {

struct SplitResult {
  std::vector<OpId> sub_ops;     // the n partitions
  std::vector<OpId> split_nodes; // one per (live) predecessor edge
  OpId concat_node = kInvalidOp; // single concat feeding all successors
};

// True if `op` may be split into n parts along `dim` (type supports the
// dimension and the extent is at least n).
bool CanSplit(const Graph& g, OpId op, SplitDim dim, int n);

// Applies the rewrite in place. The original op is tombstoned. Requires
// CanSplit(g, op, dim, n). Every edit goes through the graph's journaled
// mutators, so a Graph::Mark() taken before the call undoes the whole
// rewrite, and the rewrite is a pure function of the graph: applied to two
// equal graphs it yields equal graphs with the same new slot ids.
//
// Cost semantics of the produced nodes:
//  * sub-op i performs size_i/extent of the original FLOPs and carries a
//    cost-model fallback (basis = parent key, scale = size_i/extent);
//  * batch split: weights are replicated into each sub-op; input edges carry
//    1/n of the tensor (fine-grained data parallelism);
//  * channel split: weights are partitioned 1/n; every sub-op reads the FULL
//    input tensor (fine-grained model parallelism) — this is the extra
//    broadcast traffic that makes channel splits of large-weight ops
//    unattractive, matching the paper's Table 5 analysis;
//  * split/concat glue nodes are memory-bound (cost ∝ bytes moved).
SplitResult SplitOperation(Graph& g, OpId op, SplitDim dim, int n);

// Shared cost-model key for byte-priced glue nodes (Split/Concat/
// GradAggregate): sizes are bucketed to powers of two so one profile prices
// every glue node of a similar size.
std::string GlueCostKey(OpType type, int64_t bytes);

}  // namespace fastt
