// Searcher arena — the shared search interface and the portfolio racer.
//
// Every placement searcher in the repository (the Fig. 3 black-box stand-ins
// in src/baselines, the published-rival reimplementations, and FastT's own
// DPOS pipeline) speaks one interface: build a model at a batch size, search
// for a strategy on a cluster, return a SearchResult. PortfolioSearch races
// all registered searchers concurrently on the shared search pool under a
// wall-clock budget, gates every candidate through the strategy verifier,
// and keeps the best verified strategy — an algorithm-portfolio version of
// the paper's Fig. 3 comparison, with per-searcher provenance (evaluations,
// wall time, verifier verdict) emitted through the metrics/tracer/event-log
// stack.
//
// Determinism contract (same as the rest of the search stack): searcher
// results are a pure function of (model, batch, cluster, options); the
// portfolio races them into per-index slots and reduces serially in registry
// order, so with no wall-clock budget pressure the winner is byte-identical
// for any --jobs setting.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "core/data_parallel.h"
#include "core/strategy.h"
#include "graph/graph.h"
#include "obs/event_log.h"
#include "sim/cluster.h"

namespace fastt {

// The outcome of one searcher run. `iteration_s` is the searcher's reported
// objective: the simulated time of the best feasible candidate under the
// searcher's own evaluation options (bit-equal to an independent noise-free
// re-simulation when SearchOptions::noise_cv == 0).
struct SearchResult {
  Graph graph;
  std::vector<DeviceId> placement;
  // Execution order, when the searcher computes one (FastT's DPOS order
  // enforcement). Empty = FIFO dispatch; the arena then derives an order
  // from the simulated start times for verification.
  std::vector<OpId> execution_order;
  // Split list already applied to `graph` (FlexFlow-like annealing, OS-DPOS).
  std::vector<SplitDecision> splits;
  double iteration_s = 0.0;  // best feasible candidate's simulated time
  int evaluations = 0;       // simulator calls spent
  int64_t global_batch = 0;
  double wall_s = 0.0;       // host wall-clock the search itself consumed
  // Why the search stopped: "constructed" (one-shot builders), "budget"
  // (evaluation budget exhausted), "converged" (patience fired), "deadline"
  // (SearchOptions::wall_budget_s exceeded).
  std::string stop_reason;
  // Set by the portfolio gate: VerifyStrategy accepted the candidate with
  // zero errors. Searchers themselves leave it false.
  bool verified = false;
};

struct SearchOptions {
  int budget = 200;        // candidate evaluations
  uint64_t seed = 11;
  double noise_cv = 0.0;   // evaluation noise (0: deterministic objective)
  // Convergence early-exit: stop after this many consecutive evaluations
  // without improving the incumbent (0 = disabled; the search then runs its
  // full budget, the pre-arena behaviour).
  int patience = 0;
  // Wall-clock budget in seconds (0 = none). Iterative searchers check it
  // between evaluations and stop with stop_reason "deadline"; one-shot
  // constructions ignore it. Nonzero values trade determinism for latency —
  // the portfolio's differential tests run without it.
  double wall_budget_s = 0.0;
};

// Deadline helper shared by the iterative searchers. Cheap to poll.
class SearchDeadline {
 public:
  explicit SearchDeadline(double wall_budget_s)
      : enabled_(wall_budget_s > 0.0),
        end_(std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(
                     wall_budget_s > 0.0 ? wall_budget_s : 0.0))) {}
  bool Exceeded() const {
    return enabled_ && std::chrono::steady_clock::now() >= end_;
  }

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point end_;
};

using SearchFn = std::function<SearchResult(
    const ModelBuildFn& build, const std::string& model_name, int64_t batch,
    const Cluster& cluster, const SearchOptions& options)>;

// One registered arena contender. `family` names the search style for tables
// and provenance ("black-box", "list-scheduler", "partitioner", "dpos").
struct ArenaSearcher {
  std::string name;
  std::string family;
  SearchFn fn;
};

// The execution order the result implies: the recorded order when the
// searcher computed one, otherwise the op sequence of a deterministic
// noise-free simulation sorted by start time (ties broken by topological
// position, so the derived order always extends the dependency order).
std::vector<OpId> ExecutionOrderOf(const SearchResult& result,
                                   const Cluster& cluster);

// Packages a SearchResult as a Strategy for VerifyStrategy / serialization:
// placement + ExecutionOrderOf + the split list, with predicted_makespan set
// to the noise-free re-simulated iteration time.
Strategy StrategyFromSearchResult(const SearchResult& result,
                                  const Cluster& cluster);

// Independent noise-free re-simulation of the result's strategy (priority
// dispatch when the result carries an execution order, FIFO otherwise).
// This is the arena's ranking objective and the differential tests' oracle:
// with noise_cv == 0 every searcher's reported iteration_s must equal it
// bit-exactly.
double ResimulateIteration(const SearchResult& result, const Cluster& cluster);

// One row of the portfolio outcome, in registry order.
struct PortfolioEntry {
  std::string searcher;
  std::string family;
  double iteration_s = 0.0;  // searcher-reported objective
  double resim_s = 0.0;      // independent re-simulation (the ranking key)
  int evaluations = 0;
  double wall_s = 0.0;
  int64_t global_batch = 0;
  bool verified = false;     // VerifyStrategy accepted with zero errors
  int verify_errors = 0;
  int verify_warnings = 0;
  std::string stop_reason;
  bool winner = false;
};

struct PortfolioOptions {
  // Base options handed to every searcher (seed, evaluation budget, noise).
  SearchOptions search;
  // Wall-clock budget granted to each racer (they run concurrently, so this
  // is also the approximate budget of the whole arena). 0 = none.
  double budget_s = 2.0;
  // Gate candidates through VerifyStrategy; unverified candidates can never
  // win. Off = rank by re-simulation alone.
  bool verify = true;
  VerifierOptions verifier;
};

struct PortfolioResult {
  std::vector<PortfolioEntry> entries;  // registry order
  int winner = -1;                      // index into entries, -1 = none
  // Winner's artifacts (valid when winner >= 0).
  Graph graph;
  Strategy strategy;
  VerifyResult winner_verify;
  double iteration_s = 0.0;  // winner's resim_s
  int64_t global_batch = 0;
  // Narrated provenance: one "arena_searcher" event per contender (in
  // registry order) plus a final "arena_winner" event.
  EventLog events;
};

// Races `searchers` concurrently via ParallelFor (per-index result slots,
// serial registry-order reduction — the PR-2 determinism idiom), verifies
// every candidate, and returns the best verified strategy by re-simulated
// iteration time (ties: lowest registry index).
PortfolioResult PortfolioSearch(const std::vector<ArenaSearcher>& searchers,
                                const ModelBuildFn& build,
                                const std::string& model_name, int64_t batch,
                                const Cluster& cluster,
                                const PortfolioOptions& options = {});

// {"fastt_arena":1, "model":..., "searchers":[...], "winner":...} — the
// machine-readable arena table (`--report`'s `arena` section, CI artifact).
std::string PortfolioToJson(const std::string& model_name, int64_t batch,
                            const Cluster& cluster,
                            const PortfolioResult& result);

}  // namespace fastt
