#include "graph/memory.h"

namespace fastt {

int64_t MemNeed(const Graph& g, OpId id) {
  const Operation& op = g.op(id);
  int64_t need = op.resident_bytes();
  if (!op.is_backward) {
    // A forward activation consumed by the backward pass stays alive until
    // then; that retained set (plus parameters) dominates training peaks.
    for (EdgeId e : g.out_edges(id)) {
      const Edge& edge = g.edge(e);
      if (edge.dead) continue;
      const Operation& succ = g.op(edge.dst);
      if (!succ.dead && succ.is_backward) {
        need += op.output_bytes();
        break;
      }
    }
  }
  return need;
}

}  // namespace fastt
