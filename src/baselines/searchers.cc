#include "baselines/searchers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "baselines/colocation.h"
#include "graph/rewrite.h"
#include "util/check.h"
#include "util/rng.h"

namespace fastt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Simulated objective of a candidate; infeasible (OOM) candidates score inf.
double Evaluate(const Graph& g, const std::vector<DeviceId>& placement,
                const Cluster& cluster, const SearchOptions& options,
                int* evaluations) {
  SimOptions so;
  so.noise_cv = options.noise_cv;
  so.seed = options.seed + static_cast<uint64_t>(*evaluations);
  ++*evaluations;
  const SimResult r = Simulate(g, placement, cluster, so);
  return r.oom ? kInf : r.makespan;
}

std::vector<DeviceId> RandomPlacement(const Graph& g,
                                      const std::vector<OpId>& topo,
                                      const Cluster& cluster, Rng& rng) {
  std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()),
                                  kInvalidDevice);
  for (OpId id : g.LiveOps())
    placement[static_cast<size_t>(id)] = static_cast<DeviceId>(
        rng.NextBelow(static_cast<uint64_t>(cluster.num_devices())));
  ApplyColocation(g, topo, placement);
  return placement;
}

}  // namespace

SearchResult RandomSearchPlacement(const ModelBuildFn& build,
                                   const std::string& model_name,
                                   int64_t batch, const Cluster& cluster,
                                   const SearchOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  SearchResult result;
  result.global_batch = batch;
  result.graph = Graph(model_name);
  build(result.graph, "", batch);
  Rng rng(options.seed);
  const SearchDeadline deadline(options.wall_budget_s);
  const std::vector<OpId> topo = result.graph.TopoOrder();

  double best = kInf;
  int since_improvement = 0;
  result.stop_reason = "budget";
  for (int i = 0; i < options.budget; ++i) {
    if (deadline.Exceeded()) {
      result.stop_reason = "deadline";
      break;
    }
    auto placement = RandomPlacement(result.graph, topo, cluster, rng);
    const double score =
        Evaluate(result.graph, placement, cluster, options,
                 &result.evaluations);
    if (score < best) {
      best = score;
      result.placement = std::move(placement);
      since_improvement = 0;
    } else if (options.patience > 0 &&
               ++since_improvement >= options.patience) {
      result.stop_reason = "converged";
      break;
    }
  }
  // Random placement of a deep graph is usually dreadful; keep the
  // all-on-one-device fallback in the pool like the RL papers' baselines.
  std::vector<DeviceId> single(static_cast<size_t>(result.graph.num_slots()),
                               0);
  const double single_score = Evaluate(result.graph, single, cluster,
                                       options, &result.evaluations);
  if (single_score < best) {
    best = single_score;
    result.placement = std::move(single);
  }
  result.iteration_s = best;
  result.wall_s = SecondsSince(t0);
  return result;
}

SearchResult GreedyRankPlacement(const ModelBuildFn& build,
                                 const std::string& model_name,
                                 int64_t batch, const Cluster& cluster,
                                 const SearchOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  SearchResult result;
  result.global_batch = batch;
  result.graph = Graph(model_name);
  build(result.graph, "", batch);
  const Graph& g = result.graph;

  // FLOP-weighted longest-path rank (white-box analogue of a learned
  // priority), then greedy earliest-finish assignment with an analytic
  // per-device clock — no cost models, no timeline insertion.
  const auto rank = g.LongestPathFromExit(
      [](const Operation& op) { return op.flops + 1.0; },
      [](const Edge& e) { return static_cast<double>(e.bytes); });

  std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()),
                                  kInvalidDevice);
  std::vector<double> device_clock(
      static_cast<size_t>(cluster.num_devices()), 0.0);
  std::vector<double> finish(static_cast<size_t>(g.num_slots()), 0.0);

  std::vector<OpId> order = g.TopoOrder();
  std::stable_sort(order.begin(), order.end(), [&](OpId a, OpId b) {
    return rank[static_cast<size_t>(a)] > rank[static_cast<size_t>(b)];
  });
  // Re-topologize: process in topo order, but the rank ordering biases
  // tie-breaking through the stable sort of clock updates below.
  order = g.TopoOrder();
  for (OpId id : order) {
    const Operation& op = g.op(id);
    if (op.colocate_with != kInvalidOp &&
        placement[static_cast<size_t>(op.colocate_with)] != kInvalidDevice) {
      placement[static_cast<size_t>(id)] =
          placement[static_cast<size_t>(op.colocate_with)];
      continue;
    }
    double best_finish = kInf;
    DeviceId best = 0;
    for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
      double ready = 0.0;
      for (EdgeId e : g.in_edges(id)) {
        const Edge& edge = g.edge(e);
        if (edge.dead || g.op(edge.src).dead) continue;
        const DeviceId pd = placement[static_cast<size_t>(edge.src)];
        double arrival = finish[static_cast<size_t>(edge.src)];
        if (pd != d)
          arrival += cluster.LinkBetween(pd, d).TransferTime(edge.bytes);
        ready = std::max(ready, arrival);
      }
      const double w = GroundTruthDuration(op, cluster.device(d));
      const double f = std::max(ready, device_clock[static_cast<size_t>(d)]) +
                       w;
      if (f < best_finish) {
        best_finish = f;
        best = d;
      }
    }
    placement[static_cast<size_t>(id)] = best;
    device_clock[static_cast<size_t>(best)] = best_finish;
    finish[static_cast<size_t>(id)] = best_finish;
  }

  result.placement = std::move(placement);
  result.iteration_s = Evaluate(result.graph, result.placement, cluster,
                                options, &result.evaluations);
  result.wall_s = SecondsSince(t0);
  result.stop_reason = "constructed";
  return result;
}

SearchResult LocalSearchPlacement(const ModelBuildFn& build,
                                  const std::string& model_name,
                                  int64_t batch, const Cluster& cluster,
                                  const SearchOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  // Start from the greedy construction, then hill-climb with single-op
  // moves (the cross-entropy/PPO refinement loop in white-box form).
  SearchResult result = GreedyRankPlacement(build, model_name, batch, cluster,
                                            options);
  const Graph& g = result.graph;
  Rng rng(options.seed * 31 + 7);
  const auto live = g.LiveOps();
  const std::vector<OpId> topo = g.TopoOrder();
  const SearchDeadline deadline(options.wall_budget_s);

  double best = result.iteration_s;
  auto placement = result.placement;
  int since_improvement = 0;
  result.stop_reason = "budget";
  while (result.evaluations < options.budget) {
    if (deadline.Exceeded()) {
      result.stop_reason = "deadline";
      break;
    }
    auto candidate = placement;
    const OpId victim = live[rng.NextBelow(live.size())];
    if (g.op(victim).colocate_with != kInvalidOp) continue;
    candidate[static_cast<size_t>(victim)] = static_cast<DeviceId>(
        rng.NextBelow(static_cast<uint64_t>(cluster.num_devices())));
    ApplyColocation(g, topo, candidate);
    const double score =
        Evaluate(g, candidate, cluster, options, &result.evaluations);
    if (score < best) {
      best = score;
      placement = std::move(candidate);
      since_improvement = 0;
    } else if (options.patience > 0 &&
               ++since_improvement >= options.patience) {
      result.stop_reason = "converged";
      break;
    }
  }
  result.placement = std::move(placement);
  result.iteration_s = best;
  result.wall_s = SecondsSince(t0);
  return result;
}

SearchResult CrossEntropyPlacement(const ModelBuildFn& build,
                                   const std::string& model_name,
                                   int64_t batch, const Cluster& cluster,
                                   const SearchOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  SearchResult result;
  result.global_batch = batch;
  result.graph = Graph(model_name);
  build(result.graph, "", batch);
  const Graph& g = result.graph;
  Rng rng(options.seed * 7919 + 13);
  const SearchDeadline deadline(options.wall_budget_s);

  const auto live = g.LiveOps();
  const std::vector<OpId> topo = g.TopoOrder();
  const size_t n_dev = static_cast<size_t>(cluster.num_devices());
  // Per-op categorical distribution over devices, initialized uniform.
  std::vector<std::vector<double>> theta(
      static_cast<size_t>(g.num_slots()),
      std::vector<double>(n_dev, 1.0 / static_cast<double>(n_dev)));

  auto sample = [&]() {
    std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()), 0);
    for (OpId id : live) {
      const auto& p = theta[static_cast<size_t>(id)];
      double u = rng.NextDouble();
      DeviceId pick = static_cast<DeviceId>(n_dev - 1);
      for (size_t d = 0; d < n_dev; ++d) {
        u -= p[d];
        if (u <= 0.0) {
          pick = static_cast<DeviceId>(d);
          break;
        }
      }
      placement[static_cast<size_t>(id)] = pick;
    }
    ApplyColocation(g, topo, placement);
    return placement;
  };

  const int population = 20;
  const int elites = 4;
  const double smoothing = 0.7;  // weight of the refit vs. the old theta
  // Like the RL placement papers, the single-device baseline is always in
  // the candidate pool.
  std::vector<DeviceId> single(static_cast<size_t>(g.num_slots()), 0);
  double best = Evaluate(g, single, cluster, options, &result.evaluations);
  result.placement = std::move(single);
  int since_improvement = 0;
  result.stop_reason = "budget";
  while (result.evaluations + population <= options.budget) {
    if (deadline.Exceeded()) {
      result.stop_reason = "deadline";
      break;
    }
    std::vector<std::pair<double, std::vector<DeviceId>>> scored;
    scored.reserve(population);
    for (int i = 0; i < population; ++i) {
      auto placement = sample();
      const double score =
          Evaluate(g, placement, cluster, options, &result.evaluations);
      scored.emplace_back(score, std::move(placement));
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    if (scored.front().first < best) {
      best = scored.front().first;
      result.placement = scored.front().second;
      since_improvement = 0;
    } else if (options.patience > 0 &&
               (since_improvement += population) >= options.patience) {
      result.stop_reason = "converged";
      break;
    }
    // Refit theta on the elite fraction.
    for (OpId id : live) {
      std::vector<double> counts(n_dev, 0.25);  // Laplace smoothing
      double total = 0.25 * static_cast<double>(n_dev);
      for (int e = 0; e < elites; ++e) {
        counts[static_cast<size_t>(
            scored[static_cast<size_t>(e)].second[static_cast<size_t>(id)])] +=
            1.0;
        total += 1.0;
      }
      auto& p = theta[static_cast<size_t>(id)];
      for (size_t d = 0; d < n_dev; ++d)
        p[d] = (1.0 - smoothing) * p[d] + smoothing * counts[d] / total;
    }
  }
  if (result.placement.empty()) {
    // Budget smaller than one population: fall back to a single sample.
    result.placement = sample();
    best = Evaluate(g, result.placement, cluster, options,
                    &result.evaluations);
  }
  result.iteration_s = best;
  result.wall_s = SecondsSince(t0);
  return result;
}

SearchResult AnnealingSearch(const ModelBuildFn& build,
                             const std::string& model_name, int64_t batch,
                             const Cluster& cluster,
                             const SearchOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  SearchResult result;
  DataParallelGraph dp = BuildDataParallel(build, model_name, batch,
                                           cluster.num_devices(),
                                           Scaling::kStrong);
  result.global_batch = dp.global_batch;
  Rng rng(options.seed * 131 + 3);
  const SearchDeadline deadline(options.wall_budget_s);

  // Current state: graph (splits applied) + placement + the split list that
  // produced the graph. Start from canonical data parallelism — the same
  // warm start FlexFlow's search uses. current_graph is always dp.graph
  // with current_splits applied in order (rejected trials are undone), so
  // the best graph is rebuilt from best_splits at the end, not copied.
  Graph current_graph = dp.graph;
  // current_graph's TopoOrder(), for placement moves. Undo restores the
  // graph exactly, so only a committed split changes it.
  std::vector<OpId> current_topo = current_graph.TopoOrder();
  auto current_placement = CanonicalDataParallelPlacement(dp);
  std::vector<SplitDecision> current_splits;
  double current =
      Evaluate(current_graph, current_placement, cluster, options,
               &result.evaluations);
  auto best_placement = current_placement;
  auto best_splits = current_splits;
  double best = current;

  int since_improvement = 0;
  result.stop_reason = "budget";
  const double t0 = 0.35;  // initial acceptance temperature (relative)
  while (result.evaluations < options.budget) {
    if (deadline.Exceeded()) {
      result.stop_reason = "deadline";
      break;
    }
    const double progress = static_cast<double>(result.evaluations) /
                            std::max(1, options.budget);
    const double temperature = t0 * (1.0 - progress);

    // The trial rewrites current_graph in place under a journal mark:
    // committed if accepted, undone if rejected, so no iteration copies the
    // graph (most only move one op and leave the graph unedited).
    const size_t mark = current_graph.Mark();
    auto trial_placement = current_placement;
    auto trial_splits = current_splits;
    const bool try_split = rng.NextBool(0.15);
    bool mutated = false;
    if (try_split) {
      // Split a random compute-bound op along a random legal dimension.
      const auto live = current_graph.LiveOps();
      for (int attempt = 0; attempt < 16 && !mutated; ++attempt) {
        const OpId op = live[rng.NextBelow(live.size())];
        const auto dims = ParallelizableDims(current_graph.op(op).type);
        if (dims.empty() || !IsComputeBound(current_graph.op(op).type))
          continue;
        const SplitDim dim = dims[rng.NextBelow(dims.size())];
        const int n = 2 << rng.NextBelow(2);  // 2 or 4
        if (!CanSplit(current_graph, op, dim, n)) continue;
        trial_splits.push_back({current_graph.op(op).name, dim, n});
        const auto split = SplitOperation(current_graph, op, dim, n);
        trial_placement.resize(
            static_cast<size_t>(current_graph.num_slots()), 0);
        const DeviceId home = trial_placement[static_cast<size_t>(op)];
        for (OpId sub : split.sub_ops)
          trial_placement[static_cast<size_t>(sub)] = static_cast<DeviceId>(
              rng.NextBelow(static_cast<uint64_t>(cluster.num_devices())));
        for (OpId sp : split.split_nodes)
          trial_placement[static_cast<size_t>(sp)] = home;
        if (split.concat_node != kInvalidOp)
          trial_placement[static_cast<size_t>(split.concat_node)] = home;
        mutated = true;
      }
    }
    if (!mutated) {
      const auto live = current_graph.LiveOps();
      const OpId victim = live[rng.NextBelow(live.size())];
      trial_placement[static_cast<size_t>(victim)] = static_cast<DeviceId>(
          rng.NextBelow(static_cast<uint64_t>(cluster.num_devices())));
      ApplyColocation(current_graph, current_topo, trial_placement);
    }

    const double score = Evaluate(current_graph, trial_placement, cluster,
                                  options, &result.evaluations);
    const double relative = (score - current) / std::max(current, 1e-9);
    if (score < current ||
        (temperature > 0.0 &&
         rng.NextBool(std::exp(-relative / temperature)))) {
      current_graph.Commit(mark);
      if (mutated) current_topo = current_graph.TopoOrder();
      current = score;
      current_placement = std::move(trial_placement);
      current_splits = std::move(trial_splits);
      if (current < best) {
        best = current;
        best_placement = current_placement;
        best_splits = current_splits;
        since_improvement = 0;
        continue;
      }
    } else {
      current_graph.Undo(mark);
    }
    if (options.patience > 0 && ++since_improvement >= options.patience) {
      result.stop_reason = "converged";
      break;
    }
  }
  result.graph = std::move(dp.graph);
  for (const SplitDecision& s : best_splits)
    SplitOperation(result.graph, result.graph.FindOp(s.op_name), s.dim,
                   s.num_splits);
  result.placement = std::move(best_placement);
  result.splits = std::move(best_splits);
  result.iteration_s = best;
  result.wall_s = SecondsSince(wall_start);
  return result;
}

}  // namespace fastt
