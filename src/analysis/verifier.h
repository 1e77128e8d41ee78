// Strategy/graph verifier — a pure, simulation-free validity pass.
//
// FastT's claim is that DPOS/OS-DPOS emit *valid* strategies: acyclic after
// split/concat rewrites, fully placed on real devices, memory-feasible, and
// executable without deadlock under priority ordering. Until now the only
// thing standing between a rewrite bug and a wrong benchmark number was the
// simulator happening to crash. This pass checks the plan itself — the same
// "verify the plan, not the run" discipline of TensorFlow's graph validators
// and TVM's relay well-formedness checks — and reports structured
// diagnostics {rule_id, severity, location, message, fix_hint} instead of a
// mystery regression.
//
// Rule catalog (DESIGN.md §12 has the one-line rationale for each):
//   graph.acyclic         split/concat rewrites must leave the DAG acyclic
//   graph.glue.split      a Split node needs 1 producer and >= 2 consumers
//   graph.glue.concat     a Concat node needs >= 2 producers and a consumer
//   strategy.split.op     split decisions must name a real, splittable op
//   strategy.split.shape  sub-op extents must tile the parent's extent
//   place.size            placement vector must cover every op slot
//   place.total           every live op must be placed
//   place.device          placements must name devices that exist
//   place.colocate        colocation constraints must be respected
//   order.complete        the order must list every live op exactly once
//   order.deps            the order must extend the dependency partial order
//                         (the executor-deadlock precondition)
//   loop.iter             unrolled-loop edges must not point backwards
//   mem.capacity [full]   per-device peak under the declared order must fit
//   mem.headroom [full]   ... and should leave the scheduler's headroom
//   comm.model   [full]   cross-device edges should have a priced link (one
//                         warning per strategy, counting the transfers)
//
// Cheap rules are O(V + E) with no cost-model access and run after every
// DPOS/OS-DPOS round inside StrategyCalculator; the [full] rules add memory
// and cost-model sweeps and run behind CalculatorOptions::verify_full and in
// `fastt verify`.
#pragma once

#include <string>
#include <vector>

#include "core/strategy.h"
#include "cost/comm_cost.h"
#include "graph/graph.h"
#include "sim/cluster.h"

namespace fastt {

enum class VerifySeverity { kWarning, kError };

const char* VerifySeverityName(VerifySeverity severity);

struct Diagnostic {
  std::string rule_id;
  VerifySeverity severity = VerifySeverity::kError;
  OpId op = kInvalidOp;   // offending op, when one can be named
  EdgeId edge = -1;       // offending edge, when one can be named
  std::string message;    // what is wrong, with names and numbers
  std::string fix_hint;   // where to look / what usually causes it
};

struct VerifierOptions {
  // Run only the O(V+E) structural rules (what the per-round hook uses).
  bool cheap_only = false;
  // Fraction of usable device memory the plan may fill before the headroom
  // warning fires; matches DposOptions::memory_headroom.
  double memory_headroom = 0.92;
  // Cap on reported diagnostics per rule so one systemic bug does not bury
  // the rest of the report; a summary line counts the suppressed remainder.
  int max_per_rule = 8;
};

struct VerifyResult {
  std::vector<Diagnostic> diagnostics;
  int errors = 0;
  int warnings = 0;
  int rules_checked = 0;
  bool ok() const { return errors == 0; }
  // First error-severity rule id, or "" — what round rollbacks get named by.
  std::string first_error_rule() const;
};

// Verifies `strategy` against `graph` on `cluster`. `comm` may be null; the
// comm.model rule is skipped when it is null or has no fitted pairs yet.
VerifyResult VerifyStrategy(const Graph& graph, const Strategy& strategy,
                            const Cluster& cluster,
                            const CommCostModel* comm = nullptr,
                            const VerifierOptions& options = {});

// Human-readable report (one block per diagnostic plus a summary line).
std::string RenderDiagnostics(const Graph& graph, const VerifyResult& result);

// {"fastt_verify":1, "graph":name, "errors":n, "warnings":n,
//  "rules_checked":n, "diagnostics":[{rule_id, severity, op, op_name, edge,
//  message, fix_hint}]} — round-trips through JsonParse.
std::string DiagnosticsToJson(const Graph& graph, const VerifyResult& result);

}  // namespace fastt
