// OS-DPOS — Operation Splitting + DPOS (paper Alg. 2).
//
// Starting from a DPOS schedule, walk the realized critical path in
// descending order of computation time and, for each op, probe splitting it
// along each parallelizable dimension with each candidate split count
// (rescheduling the rewritten graph with DPOS every time). Commit the best
// split only if it strictly improves FT(o_exit); stop at the first op whose
// best split does not improve (the paper's early exit).
#pragma once

#include "core/dpos.h"
#include "core/rank.h"

namespace fastt {

struct OsDposOptions {
  DposOptions dpos;
  // Candidate split counts are 2, 4, ..., up to the device count (plus the
  // device count itself when it is not a power of two).
  // Safety valve on pathological graphs: maximum number of committed splits
  // (the paper's early exit usually stops far sooner; Table 6 reports only
  // one or two split op kinds per model).
  int max_splits = 8;
  // Maximum number of CP ops probed (the early exit usually fires first).
  int max_probed_ops = 32;
};

struct OsDposResult {
  Graph graph;         // input graph with all committed splits applied
  DposResult schedule; // final DPOS result on that graph
  std::vector<SplitDecision> splits;
  int probes = 0;      // DPOS invocations spent probing splits
  // Every (dim, count) trial probed, in probe order, with its predicted
  // makespan and whether it won; populated only when
  // OsDposOptions::dpos.record_provenance is set.
  std::vector<SplitTrialRecord> trials;
};

// The DPOS inputs of split trials, derived instead of rebuilt (DESIGN.md
// §9). SplitOperation kills the split op and appends slots (its sub-ops and
// glue ops). Every other op keeps its compute row and its MemNeed: each
// rewired producer edge now feeds a glue op with the split op's
// is_backward. The only ranks that can change are those of the appended
// slots and their ancestors. So OsDpos builds the inputs of the graph it is
// splitting once (the base), and each trial derives its own into a lane's
// buffers: base rows, MemNeed and ranks copied, the split op's slot zeroed
// (a dead slot reads 0, as in a fresh build), rows and MemNeed computed for
// the appended slots, and rank_u re-swept over the appended slots and their
// ancestors. The result equals BuildDposInputs on the trial graph bit for
// bit (tests/property_test.cc, SplitTrialInputsSweep).
class SplitTrialInputs {
 public:
  // One lane's buffers, reused across the trials it runs.
  struct Lane {
    DposInputs inputs;
    RankUSweep sweep;
  };

  // The base: BuildDposInputs(g, num_devices, comp, comm). `comp` must
  // outlive this object.
  SplitTrialInputs(const Graph& g, int32_t num_devices,
                   const CompCostModel& comp, const CommCostModel& comm);

  const DposInputs& base() const { return base_; }

  // The inputs of `g`, which is the base graph after one SplitOperation of
  // `op`, derived into `lane`. Safe to call from several lanes at once.
  const DposInputs& Derive(const Graph& g, OpId op, Lane& lane) const;

  // `g`, the base graph with the split of `op` kept, becomes the base: its
  // inputs are derived into `lane`, whose buffers then swap with the old
  // base's.
  void Commit(const Graph& g, OpId op, Lane& lane);

 private:
  const CompCostModel& comp_;
  DposInputs base_;
};

OsDposResult OsDpos(const Graph& g, const Cluster& cluster,
                    const CompCostModel& comp, const CommCostModel& comm,
                    const OsDposOptions& options = {});

}  // namespace fastt
