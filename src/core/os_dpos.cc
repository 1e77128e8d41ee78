#include "core/os_dpos.h"

#include <algorithm>
#include <utility>

#include "graph/rewrite.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/memtrack.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

std::vector<int> CandidateSplitCounts(int num_devices) {
  std::vector<int> counts;
  for (int n = 2; n <= num_devices; n *= 2) counts.push_back(n);
  if (num_devices >= 2 &&
      (counts.empty() || counts.back() != num_devices))
    counts.push_back(num_devices);
  return counts;
}

}  // namespace

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
  metrics.AddCounter("os_dpos/invocations");
  OsDposResult result;
  result.graph = g;
  result.schedule = Dpos(result.graph, cluster, comp, comm, options.dpos);
  double ft_old = result.schedule.ft_exit;

  // Critical path realized by the initial placement, by descending compute
  // time (the heaviest ops are the most promising split candidates).
  std::vector<OpId> cp =
      RealizedCriticalPath(result.graph, result.schedule, comm);
  std::sort(cp.begin(), cp.end(), [&](OpId a, OpId b) {
    const auto& fa = result.schedule;
    const double wa = fa.finish_time[static_cast<size_t>(a)] -
                      fa.start_time[static_cast<size_t>(a)];
    const double wb = fa.finish_time[static_cast<size_t>(b)] -
                      fa.start_time[static_cast<size_t>(b)];
    if (wa != wb) return wa > wb;
    return a < b;
  });

  const std::vector<int> counts = CandidateSplitCounts(cluster.num_devices());
  if (counts.empty()) return result;

  // Trials rewrite scratch graphs in place and roll them back: one scratch
  // graph per lane, copied from result.graph by the lane itself the first
  // time it runs and kept equal to result.graph afterwards (every commit
  // below is applied to it too). A trial is Mark -> SplitOperation -> Dpos
  // -> Undo, so no trial copies or frees a graph.
  TaggedVector<Graph> lanes{TaggedAlloc<Graph>(MemTag::kDpos)};
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
    // at most min(trials, jobs) lanes, each taking a contiguous range of
    // them; inside a pool worker, where ParallelFor runs serially anyway,
    // one lane runs them all.
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
    const size_t width =
        ThreadPool::InWorker()
            ? std::min<size_t>(trials.size(), 1)
            : std::min(trials.size(), static_cast<size_t>(SearchJobs()));
    if (lanes.size() < width) lanes.resize(width);
    ParallelFor(width, [&](size_t lane) {
      Graph& scratch = lanes[lane];
      if (scratch.num_slots() == 0) {
        FASTT_TRACE_SPAN("osdpos/scratch");
        scratch = result.graph;
      }
      const size_t begin = lane * trials.size() / width;
      const size_t end = (lane + 1) * trials.size() / width;
      for (size_t i = begin; i < end; ++i) {
        FASTT_TRACE_SPAN("osdpos/trial");
        ScopedLatencyRef latency(metrics, trial_latency);
        Trial& t = trials[i];
        const size_t mark = scratch.Mark();
        SplitOperation(scratch, op, t.dim, t.n);
        DposResult sched = Dpos(scratch, cluster, comp, comm, options.dpos);
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
    // trial's schedule refers to, and every scratch graph stays equal to
    // result.graph.
    const Trial& win = trials[best];
    result.splits.push_back(
        SplitDecision{result.graph.op(op).name, win.dim, win.n});
    SplitOperation(result.graph, op, win.dim, win.n);
    for (Graph& scratch : lanes)
      if (scratch.num_slots() != 0)
        SplitOperation(scratch, op, win.dim, win.n);
    ft_old = best_ft;
    result.schedule = std::move(trials[best].sched);
  }
  // Each lane frees its own scratch graph, as it copied it.
  ParallelFor(lanes.size(), [&](size_t lane) {
    FASTT_TRACE_SPAN("osdpos/scratch");
    lanes[lane] = Graph();
  });

  result.schedule.strategy.splits = result.splits;
  metrics.AddCounter("os_dpos/split_probes",
                     static_cast<int64_t>(result.probes));
  metrics.AddCounter("os_dpos/splits_committed",
                     static_cast<int64_t>(result.splits.size()));
  return result;
}

}  // namespace fastt
