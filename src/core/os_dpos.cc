#include "core/os_dpos.h"

#include <algorithm>
#include <utility>

#include "graph/memory.h"
#include "graph/rewrite.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/memtrack.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

TaggedVector<int> CandidateSplitCounts(int num_devices) {
  TaggedVector<int> counts{TaggedAlloc<int>(MemTag::kDpos)};
  for (int n = 2; n <= num_devices; n *= 2) counts.push_back(n);
  if (num_devices >= 2 &&
      (counts.empty() || counts.back() != num_devices))
    counts.push_back(num_devices);
  return counts;
}

}  // namespace

SplitTrialInputs::SplitTrialInputs(const Graph& g, int32_t num_devices,
                                   const CompCostModel& comp,
                                   const CommCostModel& comm)
    : comp_(comp), base_(BuildDposInputs(g, num_devices, comp, comm)) {}

const DposInputs& SplitTrialInputs::Derive(const Graph& g, OpId op,
                                           Lane& lane) const {
  MemTagScope mem_scope(MemTag::kDpos);
  DposInputs& in = lane.inputs;
  const OpId first_new = base_.comp.num_slots();
  const size_t slots = static_cast<size_t>(g.num_slots());
  in.comp.Extend(base_.comp, g, comp_, op);
  in.comm = base_.comm;
  ReserveExact(in.mem_need, slots);
  in.mem_need.assign(base_.mem_need.begin(), base_.mem_need.end());
  in.mem_need.resize(slots, 0);
  in.mem_need[static_cast<size_t>(op)] = 0;
  for (OpId id = first_new; id < g.num_slots(); ++id)
    if (!g.op(id).dead) in.mem_need[static_cast<size_t>(id)] = MemNeed(g, id);
  FASTT_TRACE_SPAN("dpos/rank");
  ReserveExact(in.rank, slots);
  in.rank.assign(base_.rank.begin(), base_.rank.end());
  in.rank[static_cast<size_t>(op)] = 0.0;
  lane.sweep.Update(g, first_new, in.comp, in.comm, in.rank);
  in.critical_path = CriticalPathByRank(g, in.rank);
  return in;
}

void SplitTrialInputs::Commit(const Graph& g, OpId op, Lane& lane) {
  Derive(g, op, lane);
  std::swap(base_, lane.inputs);
}

OsDposResult OsDpos(const Graph& g, const Cluster& cluster,
                    const CompCostModel& comp, const CommCostModel& comm,
                    const OsDposOptions& options) {
  FASTT_SCOPED_TIMER("os_dpos/total");
  FASTT_TRACE_SPAN("osdpos/total");
  // Resolve the ambient registry once and intern the per-trial histogram
  // name up front: the trial lambda below runs on pool workers at full
  // fan-out, and recording through the handle does no string construction
  // or allocation there (pinned by the memtrack obs-tag gate in
  // bench_search).
  MetricsRegistry& metrics = CurrentMetrics();
  const MetricsRegistry::HistogramHandle trial_latency =
      metrics.HistogramRef("osdpos/trial_latency_s");
  const MetricsRegistry::TimerHandle dpos_total =
      metrics.TimerRef("dpos/total");
  const MetricsRegistry::HistogramHandle dpos_latency =
      metrics.HistogramRef("dpos/latency_s");
  // Each list-scheduling run (with a trial's derivation of its inputs) is
  // timed like a Dpos call.
  auto timed_dpos = [&](const auto& run) {
    ScopedTimerRef timer(metrics, dpos_total);
    FASTT_TRACE_SPAN("dpos/total");
    ScopedLatencyRef latency(metrics, dpos_latency);
    return run();
  };
  metrics.AddCounter("os_dpos/invocations");
  OsDposResult result;
  result.graph = g;
  SplitTrialInputs inputs(g, cluster.num_devices(), comp, comm);
  result.schedule = timed_dpos([&] {
    return DposListSchedule(g, cluster, inputs.base(), options.dpos);
  });
  double ft_old = result.schedule.ft_exit;
  const TaggedVector<int> counts = CandidateSplitCounts(cluster.num_devices());
  if (counts.empty()) {
    OrderDposSchedule(result.graph, &result.schedule);
    return result;
  }

  // Trials rewrite scratch graphs in place and roll them back: a trial is
  // Mark -> SplitOperation -> derive the inputs -> list-schedule -> Undo, so
  // no trial copies or frees a graph or rebuilds whole-graph inputs, and no
  // trial orders its schedule: only the returned one is. Lane 0 runs its
  // trials on result.graph itself (Undo restores it exactly, and nothing
  // else reads it during a probe); every other lane on its own copy of g,
  // kept equal to result.graph (every commit below is applied to it too).
  // Copies share g's storage until a trial writes to it. A probe has at
  // most one trial per (dimension, count), so there are no more lanes than
  // that, and one at --jobs 1 or inside a pool worker, where ParallelFor
  // runs serially anyway.
  struct Lane {
    Graph graph;  // empty for lane 0
    SplitTrialInputs::Lane inputs;
  };
  const size_t num_lanes =
      ThreadPool::InWorker()
          ? 1
          : std::min(static_cast<size_t>(SearchJobs()), 2 * counts.size());
  TaggedVector<Lane> lanes{TaggedAlloc<Lane>(MemTag::kDpos)};
  lanes.resize(num_lanes);
  for (size_t li = 1; li < num_lanes; ++li) lanes[li].graph = g;
  auto lane_graph = [&](size_t li) -> Graph& {
    return li == 0 ? result.graph : lanes[li].graph;
  };

  // Critical path realized by the initial placement, by descending compute
  // time (the heaviest ops are the most promising split candidates).
  TaggedVector<OpId> cp = RealizedCriticalPath(result.graph, result.schedule,
                                               comm);
  std::sort(cp.begin(), cp.end(), [&](OpId a, OpId b) {
    const auto& fa = result.schedule;
    const double wa = fa.finish_time[static_cast<size_t>(a)] -
                      fa.start_time[static_cast<size_t>(a)];
    const double wb = fa.finish_time[static_cast<size_t>(b)] -
                      fa.start_time[static_cast<size_t>(b)];
    if (wa != wb) return wa > wb;
    return a < b;
  });

  int probed = 0;
  for (OpId op : cp) {
    if (static_cast<int>(result.splits.size()) >= options.max_splits) break;
    if (probed >= options.max_probed_ops) break;
    if (result.graph.op(op).dead) continue;  // consumed by an earlier commit
    ++probed;
    FASTT_TRACE_SPAN("osdpos/probe_op");

    // Probe every (dimension, count) rewrite of this op. The trial list is
    // built serially (dims outer, counts inner — the serial probe order),
    // each trial evaluated independently into its own slot, and the winner
    // reduced serially in trial order with the same strict `<`, so the
    // committed split is identical for any --jobs value. The trials run in
    // at most min(trials, lanes) lanes, each taking a contiguous range of
    // them.
    struct Trial {
      SplitDim dim = SplitDim::kNone;
      int n = 0;
      bool viable = false;
      DposResult sched;
    };
    TaggedVector<Trial> trials{TaggedAlloc<Trial>(MemTag::kDpos)};
    for (SplitDim dim : ParallelizableDims(result.graph.op(op).type)) {
      for (int n : counts) {
        if (!CanSplit(result.graph, op, dim, n)) continue;
        Trial t;
        t.dim = dim;
        t.n = n;
        trials.push_back(std::move(t));
      }
    }
    const size_t width = std::min(trials.size(), lanes.size());
    ParallelFor(width, [&](size_t li) {
      Lane& lane = lanes[li];
      Graph& scratch = lane_graph(li);
      const size_t begin = li * trials.size() / width;
      const size_t end = (li + 1) * trials.size() / width;
      for (size_t i = begin; i < end; ++i) {
        FASTT_TRACE_SPAN("osdpos/trial");
        ScopedLatencyRef latency(metrics, trial_latency);
        Trial& t = trials[i];
        const size_t mark = scratch.Mark();
        SplitOperation(scratch, op, t.dim, t.n);
        DposResult sched = timed_dpos([&] {
          return DposListSchedule(scratch, cluster,
                                  inputs.Derive(scratch, op, lane.inputs),
                                  options.dpos);
        });
        scratch.Undo(mark);
        if (sched.memory_overflow) continue;
        t.viable = true;
        t.sched = std::move(sched);
      }
    });
    result.probes += static_cast<int>(trials.size());
    // Every trial's schedule is held until the reduction below; sample the
    // live-bytes tracks once per probe.
    EmitMemTraceCounters();

    if (options.dpos.record_provenance) {
      for (const Trial& t : trials) {
        SplitTrialRecord rec;
        rec.op_name = result.graph.op(op).name;
        rec.dim = SplitDimName(t.dim);
        rec.num_splits = t.n;
        rec.viable = t.viable;
        rec.predicted_s = t.viable ? t.sched.ft_exit : 0.0;
        rec.baseline_s = ft_old;
        result.trials.push_back(std::move(rec));
      }
    }

    size_t best = trials.size();
    double best_ft = ft_old;
    for (size_t ti = 0; ti < trials.size(); ++ti) {
      const Trial& t = trials[ti];
      if (t.viable && t.sched.ft_exit < best_ft) {
        best_ft = t.sched.ft_exit;
        best = ti;
      }
    }
    // Paper's early exit: stop at the first non-improving CP op.
    if (best == trials.size()) break;
    if (options.dpos.record_provenance)
      result.trials[result.trials.size() - trials.size() + best].committed =
          true;

    // Commit by re-running the winning rewrite. SplitOperation is a pure
    // function of the graph, so result.graph gets the slot ids the winning
    // trial's schedule refers to, every scratch graph stays equal to
    // result.graph, and the next probe's base is derived for it.
    const Trial& win = trials[best];
    result.splits.push_back(
        SplitDecision{result.graph.op(op).name, win.dim, win.n});
    for (size_t li = 0; li < lanes.size(); ++li)
      SplitOperation(lane_graph(li), op, win.dim, win.n);
    inputs.Commit(result.graph, op, lanes.front().inputs);
    ft_old = best_ft;
    result.schedule = std::move(trials[best].sched);
  }
  OrderDposSchedule(result.graph, &result.schedule);
  result.schedule.strategy.splits = result.splits;
  metrics.AddCounter("os_dpos/split_probes",
                     static_cast<int64_t>(result.probes));
  metrics.AddCounter("os_dpos/splits_committed",
                     static_cast<int64_t>(result.splits.size()));
  return result;
}

}  // namespace fastt
