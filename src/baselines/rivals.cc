// Published-rival searchers for the arena: Baechi's m-ETF and m-SCT list
// schedulers, Tarnawski et al.'s DP contiguous pipeline partitioner, and
// Mayer et al.'s critical-path heuristic — the four concrete competitors the
// ROADMAP's searcher arena names (see PAPERS.md). All four are deterministic
// one-shot constructions over the bare model graph: they consume the same
// analytic ground-truth durations GreedyRankPlacement uses, never call the
// simulator during construction, and spend exactly one evaluation scoring
// the finished placement.
#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "baselines/colocation.h"
#include "baselines/searchers.h"
#include "util/check.h"

namespace fastt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Builds the bare (model-parallel) graph and stamps the shared result
// fields; the construction itself is the caller's job.
SearchResult BareGraphResult(const ModelBuildFn& build,
                             const std::string& model_name, int64_t batch) {
  SearchResult result;
  result.global_batch = batch;
  result.graph = Graph(model_name);
  build(result.graph, "", batch);
  return result;
}

// Static memory footprint an op pins on its device: weights + workspace +
// output tensor (Baechi schedules against per-op profiled memory; ours is
// the analytic equivalent).
int64_t FootprintBytes(const Operation& op) {
  return op.param_bytes + op.temp_bytes + op.output_bytes();
}

// Shared ETF scheduling core. `favorite_child_free_comm` selects the m-SCT
// relaxation: each producer's heaviest consumer transfers for free during
// scheduling (SCT's "one child's communication can be hidden" LP optimism).
SearchResult EtfSchedule(const ModelBuildFn& build,
                         const std::string& model_name, int64_t batch,
                         const Cluster& cluster, const SearchOptions& options,
                         bool favorite_child_free_comm) {
  const auto t0 = std::chrono::steady_clock::now();
  SearchResult result = BareGraphResult(build, model_name, batch);
  const Graph& g = result.graph;
  const size_t slots = static_cast<size_t>(g.num_slots());
  const size_t n_dev = static_cast<size_t>(cluster.num_devices());

  // Favorite children (m-SCT only): heaviest live out-edge per producer,
  // ties to the lowest consumer id.
  std::vector<OpId> favorite(slots, kInvalidOp);
  if (favorite_child_free_comm) {
    for (OpId id : g.LiveOps()) {
      int64_t best_bytes = -1;
      for (EdgeId e : g.out_edges(id)) {
        const Edge& edge = g.edge(e);
        if (edge.dead || g.op(edge.dst).dead) continue;
        if (edge.bytes > best_bytes ||
            (edge.bytes == best_bytes &&
             edge.dst < favorite[static_cast<size_t>(id)])) {
          best_bytes = edge.bytes;
          favorite[static_cast<size_t>(id)] = edge.dst;
        }
      }
    }
  }

  // rank_u tie-break, same weights as GreedyRankPlacement.
  const auto rank = g.LongestPathFromExit(
      [](const Operation& op) { return op.flops + 1.0; },
      [](const Edge& e) { return static_cast<double>(e.bytes); });

  // Live in-degree per op; ready = frontier kept sorted by op id.
  std::vector<int> indeg(slots, 0);
  for (OpId id : g.LiveOps())
    for (EdgeId e : g.in_edges(id)) {
      const Edge& edge = g.edge(e);
      if (!edge.dead && !g.op(edge.src).dead) ++indeg[static_cast<size_t>(id)];
    }
  std::vector<OpId> ready;
  for (OpId id : g.LiveOps())
    if (indeg[static_cast<size_t>(id)] == 0) ready.push_back(id);
  std::sort(ready.begin(), ready.end());

  std::vector<DeviceId> placement(slots, kInvalidDevice);
  std::vector<double> finish(slots, 0.0);
  std::vector<double> device_clock(n_dev, 0.0);
  std::vector<int64_t> device_mem(n_dev, 0);

  while (!ready.empty()) {
    // The ETF step: among all (ready op, memory-feasible device) pairs,
    // commit the earliest start; ties by higher rank, then lower op id,
    // then lower device id.
    double best_est = kInf;
    size_t best_ready = 0;
    DeviceId best_dev = 0;
    double best_dur = 0.0;
    for (size_t r = 0; r < ready.size(); ++r) {
      const OpId id = ready[r];
      const Operation& op = g.op(id);
      const int64_t footprint = FootprintBytes(op);

      // Candidate devices: the colocation referent's device when pinned,
      // else every device whose memory budget fits, else (everything
      // overflows) the least-loaded device — construction always finishes
      // and the simulator flags genuine OOM.
      DeviceId forced = kInvalidDevice;
      if (op.colocate_with != kInvalidOp)
        forced = placement[static_cast<size_t>(op.colocate_with)];
      std::vector<DeviceId> candidates;
      if (forced != kInvalidDevice) {
        candidates.push_back(forced);
      } else {
        DeviceId min_mem_dev = 0;
        for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
          const size_t di = static_cast<size_t>(d);
          if (device_mem[di] + footprint <=
              cluster.device(d).usable_bytes())
            candidates.push_back(d);
          if (device_mem[di] <
              device_mem[static_cast<size_t>(min_mem_dev)])
            min_mem_dev = d;
        }
        if (candidates.empty()) candidates.push_back(min_mem_dev);
      }

      for (DeviceId d : candidates) {
        double arrival = 0.0;
        for (EdgeId e : g.in_edges(id)) {
          const Edge& edge = g.edge(e);
          if (edge.dead || g.op(edge.src).dead) continue;
          const size_t src = static_cast<size_t>(edge.src);
          double a = finish[src];
          const bool free_comm = favorite_child_free_comm &&
                                 favorite[src] == id;
          if (placement[src] != d && !free_comm)
            a += cluster.LinkBetween(placement[src], d)
                     .TransferTime(edge.bytes);
          arrival = std::max(arrival, a);
        }
        const double est =
            std::max(arrival, device_clock[static_cast<size_t>(d)]);
        const bool better =
            est < best_est ||
            (est == best_est &&
             (rank[static_cast<size_t>(id)] >
                  rank[static_cast<size_t>(ready[best_ready])] ||
              (rank[static_cast<size_t>(id)] ==
                   rank[static_cast<size_t>(ready[best_ready])] &&
               (id < ready[best_ready] ||
                (id == ready[best_ready] && d < best_dev)))));
        if (better) {
          best_est = est;
          best_ready = r;
          best_dev = d;
          best_dur = GroundTruthDuration(op, cluster.device(d));
        }
      }
    }

    const OpId id = ready[best_ready];
    placement[static_cast<size_t>(id)] = best_dev;
    finish[static_cast<size_t>(id)] = best_est + best_dur;
    device_clock[static_cast<size_t>(best_dev)] =
        finish[static_cast<size_t>(id)];
    device_mem[static_cast<size_t>(best_dev)] += FootprintBytes(g.op(id));
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best_ready));

    std::vector<OpId> unlocked;
    for (EdgeId e : g.out_edges(id)) {
      const Edge& edge = g.edge(e);
      if (edge.dead || g.op(edge.dst).dead) continue;
      if (--indeg[static_cast<size_t>(edge.dst)] == 0)
        unlocked.push_back(edge.dst);
    }
    std::sort(unlocked.begin(), unlocked.end());
    unlocked.erase(std::unique(unlocked.begin(), unlocked.end()),
                   unlocked.end());
    for (OpId u : unlocked)
      ready.insert(std::lower_bound(ready.begin(), ready.end(), u), u);
  }

  ApplyColocation(g, g.TopoOrder(), placement);
  result.placement = std::move(placement);
  SimOptions so;
  so.noise_cv = options.noise_cv;
  so.seed = options.seed;
  ++result.evaluations;
  const SimResult sim = Simulate(result.graph, result.placement, cluster, so);
  result.iteration_s = sim.oom ? kInf : sim.makespan;
  result.stop_reason = "constructed";
  result.wall_s = SecondsSince(t0);
  return result;
}

}  // namespace

SearchResult MEtfPlacement(const ModelBuildFn& build,
                           const std::string& model_name, int64_t batch,
                           const Cluster& cluster,
                           const SearchOptions& options) {
  return EtfSchedule(build, model_name, batch, cluster, options,
                     /*favorite_child_free_comm=*/false);
}

SearchResult MSctPlacement(const ModelBuildFn& build,
                           const std::string& model_name, int64_t batch,
                           const Cluster& cluster,
                           const SearchOptions& options) {
  return EtfSchedule(build, model_name, batch, cluster, options,
                     /*favorite_child_free_comm=*/true);
}

SearchResult DpPipelinePlacement(const ModelBuildFn& build,
                                 const std::string& model_name, int64_t batch,
                                 const Cluster& cluster,
                                 const SearchOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  SearchResult result = BareGraphResult(build, model_name, batch);
  const Graph& g = result.graph;

  const std::vector<OpId> topo = g.TopoOrder();
  const size_t n = topo.size();
  const size_t n_dev = static_cast<size_t>(cluster.num_devices());
  std::vector<size_t> pos(static_cast<size_t>(g.num_slots()), 0);
  for (size_t i = 0; i < n; ++i) pos[static_cast<size_t>(topo[i])] = i;

  // cut[m]: bytes crossing the boundary between prefix [0,m) and [m,n).
  // An edge from topo position a to b (a < b) crosses boundaries a+1..b;
  // accumulate with a difference array, O(E + n).
  std::vector<int64_t> cut(n + 2, 0);
  for (OpId id : topo)
    for (EdgeId e : g.out_edges(id)) {
      const Edge& edge = g.edge(e);
      if (edge.dead || g.op(edge.dst).dead) continue;
      const size_t a = pos[static_cast<size_t>(edge.src)];
      const size_t b = pos[static_cast<size_t>(edge.dst)];
      cut[a + 1] += edge.bytes;
      cut[b + 1] -= edge.bytes;
    }
  for (size_t m = 1; m <= n; ++m) cut[m] += cut[m - 1];

  // Per-device prefix compute times: work[d][i] = sum of the first i ops'
  // ground-truth durations on device d.
  std::vector<std::vector<double>> work(n_dev,
                                        std::vector<double>(n + 1, 0.0));
  for (size_t d = 0; d < n_dev; ++d)
    for (size_t i = 0; i < n; ++i)
      work[d][i + 1] =
          work[d][i] + GroundTruthDuration(g.op(topo[i]),
                                           cluster.device(
                                               static_cast<DeviceId>(d)));

  // DP over (stage, prefix): bottleneck[j][i] = best achievable pipeline
  // bottleneck when stages 0..j (stage k on device k) cover the first i
  // ops. A stage's cost is its compute plus the transfer of the cut bytes
  // entering it over the link from the previous device. Empty stages are
  // legal (m == i carries bottleneck[j-1][i] forward), so small graphs
  // occupy few devices. O(D·n²).
  std::vector<std::vector<double>> bottleneck(
      n_dev, std::vector<double>(n + 1, kInf));
  std::vector<std::vector<size_t>> split_at(n_dev,
                                            std::vector<size_t>(n + 1, 0));
  for (size_t i = 0; i <= n; ++i) bottleneck[0][i] = work[0][i];
  for (size_t j = 1; j < n_dev; ++j) {
    const Link link = cluster.LinkBetween(static_cast<DeviceId>(j - 1),
                                          static_cast<DeviceId>(j));
    for (size_t i = 0; i <= n; ++i) {
      for (size_t m = 0; m <= i; ++m) {
        double stage = work[j][i] - work[j][m];
        if (m > 0 && m < i) stage += link.TransferTime(cut[m]);
        const double value = std::max(bottleneck[j - 1][m], stage);
        if (value < bottleneck[j][i]) {
          bottleneck[j][i] = value;
          split_at[j][i] = m;
        }
      }
    }
  }

  // Recover stage boundaries and place each contiguous block on its device.
  std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()),
                                  kInvalidDevice);
  size_t end = n;
  for (size_t j = n_dev; j-- > 0;) {
    const size_t begin = j == 0 ? 0 : split_at[j][end];
    for (size_t i = begin; i < end; ++i)
      placement[static_cast<size_t>(topo[i])] = static_cast<DeviceId>(j);
    end = begin;
  }
  ApplyColocation(g, topo, placement);

  result.placement = std::move(placement);
  SimOptions so;
  so.noise_cv = options.noise_cv;
  so.seed = options.seed;
  ++result.evaluations;
  const SimResult sim = Simulate(result.graph, result.placement, cluster, so);
  result.iteration_s = sim.oom ? kInf : sim.makespan;
  result.stop_reason = "constructed";
  result.wall_s = SecondsSince(t0);
  return result;
}

SearchResult CriticalPathPlacement(const ModelBuildFn& build,
                                   const std::string& model_name,
                                   int64_t batch, const Cluster& cluster,
                                   const SearchOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  SearchResult result = BareGraphResult(build, model_name, batch);
  const Graph& g = result.graph;
  const size_t slots = static_cast<size_t>(g.num_slots());
  const size_t n_dev = static_cast<size_t>(cluster.num_devices());

  const std::vector<OpId> topo = g.TopoOrder();
  std::vector<DeviceId> placement(slots, kInvalidDevice);
  std::vector<bool> assigned(slots, true);
  size_t remaining = 0;
  for (OpId id : g.LiveOps()) {
    assigned[static_cast<size_t>(id)] = false;
    ++remaining;
  }
  std::vector<double> loads(n_dev, 0.0);

  // Reference durations for path extraction (device 0; the clusters the
  // testbed builds are homogeneous). Per-device durations still price the
  // load balance below.
  std::vector<double> dur0(slots, 0.0);
  for (OpId id : g.LiveOps())
    dur0[static_cast<size_t>(id)] =
        GroundTruthDuration(g.op(id), cluster.device(0));

  std::vector<double> lp(slots, 0.0);
  while (remaining > 0) {
    // Longest remaining path (node weights only) over unassigned ops, by a
    // reverse-topo DP; then peel it head to tail onto one device.
    std::fill(lp.begin(), lp.end(), 0.0);
    for (size_t k = topo.size(); k-- > 0;) {
      const OpId id = topo[k];
      const size_t i = static_cast<size_t>(id);
      if (assigned[i]) continue;
      double tail = 0.0;
      for (EdgeId e : g.out_edges(id)) {
        const Edge& edge = g.edge(e);
        if (edge.dead || assigned[static_cast<size_t>(edge.dst)]) continue;
        tail = std::max(tail, lp[static_cast<size_t>(edge.dst)]);
      }
      lp[i] = dur0[i] + tail;
    }

    // Path head: unassigned op with no unassigned live predecessor and the
    // largest path value (ties: lower op id).
    OpId head = kInvalidOp;
    for (OpId id : g.LiveOps()) {
      const size_t i = static_cast<size_t>(id);
      if (assigned[i]) continue;
      bool entry = true;
      for (EdgeId e : g.in_edges(id)) {
        const Edge& edge = g.edge(e);
        if (!edge.dead && !g.op(edge.src).dead &&
            !assigned[static_cast<size_t>(edge.src)]) {
          entry = false;
          break;
        }
      }
      if (!entry) continue;
      if (head == kInvalidOp || lp[i] > lp[static_cast<size_t>(head)])
        head = id;
    }
    FASTT_CHECK(head != kInvalidOp);

    // Least-loaded device takes the whole path (ties: lower device id).
    DeviceId target = 0;
    for (DeviceId d = 1; d < cluster.num_devices(); ++d)
      if (loads[static_cast<size_t>(d)] <
          loads[static_cast<size_t>(target)])
        target = d;

    for (OpId at = head; at != kInvalidOp;) {
      const size_t i = static_cast<size_t>(at);
      placement[i] = target;
      assigned[i] = true;
      --remaining;
      loads[static_cast<size_t>(target)] +=
          GroundTruthDuration(g.op(at), cluster.device(target));
      OpId next = kInvalidOp;
      for (EdgeId e : g.out_edges(at)) {
        const Edge& edge = g.edge(e);
        const size_t di = static_cast<size_t>(edge.dst);
        if (edge.dead || assigned[di]) continue;
        if (next == kInvalidOp || lp[di] > lp[static_cast<size_t>(next)] ||
            (lp[di] == lp[static_cast<size_t>(next)] && edge.dst < next))
          next = edge.dst;
      }
      at = next;
    }
  }
  ApplyColocation(g, topo, placement);

  result.placement = std::move(placement);
  SimOptions so;
  so.noise_cv = options.noise_cv;
  so.seed = options.seed;
  ++result.evaluations;
  const SimResult sim = Simulate(result.graph, result.placement, cluster, so);
  result.iteration_s = sim.oom ? kInf : sim.makespan;
  result.stop_reason = "constructed";
  result.wall_s = SecondsSince(t0);
  return result;
}

}  // namespace fastt
