#include "core/dpos.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "core/rank.h"
#include "core/timeline.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/check.h"
#include "util/memtrack.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ReadyOp {
  double rank = 0.0;
  OpId op = kInvalidOp;
  bool operator<(const ReadyOp& other) const {
    // max-heap by rank; ties resolved by smaller id for determinism.
    if (rank != other.rank) return rank < other.rank;
    return op > other.op;
  }
};

}  // namespace

DposInputs BuildDposInputs(const Graph& g, int32_t num_devices,
                           const CompCostModel& comp,
                           const CommCostModel& comm) {
  MemTagScope mem_scope(MemTag::kDpos);
  DposInputs in;
  // Read-mostly cost snapshots: one model lookup per (op, device) and per
  // device pair up front; every query the scheduler makes — including from
  // worker threads — is an unsynchronized array read.
  in.comp = CompCostTable(g, comp, num_devices);
  in.comm = CommCostTable(comm, num_devices);
  // Memoized per-slot placement memory demand (MemNeed walks successor
  // lists; the device-selection loops ask for it O(devices · CP) times).
  in.mem_need.assign(static_cast<size_t>(g.num_slots()), 0);
  for (OpId id = 0; id < g.num_slots(); ++id)
    if (!g.op(id).dead) in.mem_need[static_cast<size_t>(id)] = MemNeed(g, id);
  FASTT_TRACE_SPAN("dpos/rank");
  in.rank = ComputeRankU(g, in.comp, in.comm);
  in.critical_path = CriticalPathByRank(g, in.rank);
  return in;
}

DposResult Dpos(const Graph& g, const Cluster& cluster,
                const CompCostModel& comp, const CommCostModel& comm,
                const DposOptions& options) {
  // Resolve the ambient registry once; the latency histogram records
  // through an interned handle so the per-call instrumentation does no
  // string allocation.
  MetricsRegistry& reg = CurrentMetrics();
  ScopedTimerRef total_timer(reg, reg.TimerRef("dpos/total"));
  FASTT_TRACE_SPAN("dpos/total");
  ScopedLatencyRef latency_hist(reg, reg.HistogramRef("dpos/latency_s"));
  const DposInputs inputs =
      BuildDposInputs(g, cluster.num_devices(), comp, comm);
  DposResult result = DposListSchedule(g, cluster, inputs, options);
  OrderDposSchedule(g, &result);
  return result;
}

DposResult DposListSchedule(const Graph& g, const Cluster& cluster,
                            const DposInputs& inputs,
                            const DposOptions& options) {
  // Everything the scheduler allocates below — the view, scratch vectors,
  // the ready queue, the timelines — inherits the dpos tag through the
  // ambient scope.
  MemTagScope mem_scope(MemTag::kDpos);
  CurrentMetrics().AddCounter("dpos/invocations");
  const int32_t n_dev = cluster.num_devices();
  FASTT_CHECK(n_dev >= 1);
  FASTT_CHECK(inputs.comp.num_devices() == n_dev &&
              inputs.comp.num_slots() == g.num_slots());
  const size_t slots = static_cast<size_t>(g.num_slots());
  const size_t devs = static_cast<size_t>(n_dev);
  const CompCostTable& comp_t = inputs.comp;
  const CommCostTable& comm_t = inputs.comm;
  const TaggedVector<int64_t>& mem_need = inputs.mem_need;
  const TaggedVector<double>& rank = inputs.rank;
  const TaggedVector<OpId>& critical_path = inputs.critical_path;

  // The CP prefix scan walks the whole remaining critical path per device,
  // so it fans out across the search pool from a handful of devices. Each
  // device writes its verdict into its own slot and the reduction runs
  // serially in ascending device order, so the chosen device is identical
  // for any thread count (--jobs 1 is the reference semantics).
  constexpr size_t kMinParallelDevices = 4;

  DposResult result;
  EmitMemTraceCounters();
  result.start_time.assign(slots, 0.0);
  result.finish_time.assign(slots, 0.0);
  result.strategy.placement.assign(slots, kInvalidDevice);

  TaggedVector<int64_t> planned_mem(devs, 0);
  TaggedVector<int64_t> mem_budget(devs, 0);
  for (DeviceId d = 0; d < n_dev; ++d)
    mem_budget[static_cast<size_t>(d)] = static_cast<int64_t>(
        options.memory_headroom *
        static_cast<double>(cluster.device(d).usable_bytes()));
  TaggedVector<DeviceTimeline> timeline(devs);

  // ---- Critical-path device selection (Alg. 1 line 5) ---------------------
  // Walk the CP, and for the ops not yet assigned pick the device with the
  // smallest average compute time over the longest prefix it can host; when
  // its memory fills, pick the next CP device for the remainder.
  // cp_device[op] is the device reserved for a CP op, kInvalidDevice else.
  TaggedVector<DeviceId> cp_device(slots, kInvalidDevice);
  if (options.use_critical_path_device) {
    FASTT_TRACE_SPAN("dpos/cp_device");
    struct CpCandidate {
      double avg = kInf;
      size_t count = 0;
    };
    TaggedVector<CpCandidate> cands(devs);
    size_t pos = 0;
    while (pos < critical_path.size()) {
      // Per-device prefix scan, parallel across devices.
      ParallelFor(
          devs,
          [&](size_t di) {
            const DeviceId d = static_cast<DeviceId>(di);
            int64_t free = mem_budget[di] - planned_mem[di];
            double total = 0.0;
            size_t count = 0;
            for (size_t i = pos; i < critical_path.size(); ++i) {
              const OpId cp_op = critical_path[i];
              if (mem_need[static_cast<size_t>(cp_op)] > free) break;
              free -= mem_need[static_cast<size_t>(cp_op)];
              total += comp_t.Time(cp_op, d);
              ++count;
            }
            cands[di].count = count;
            cands[di].avg =
                count == 0 ? kInf : total / static_cast<double>(count);
          },
          kMinParallelDevices);
      DeviceId best = kInvalidDevice;
      double best_avg = kInf;
      size_t best_count = 0;
      for (DeviceId d = 0; d < n_dev; ++d) {
        const CpCandidate& c = cands[static_cast<size_t>(d)];
        if (c.count == 0) continue;
        if (c.avg < best_avg - 1e-15 ||
            (c.avg <= best_avg + 1e-15 && c.count > best_count)) {
          best_avg = c.avg;
          best = d;
          best_count = c.count;
        }
      }
      if (best == kInvalidDevice) {
        // No device can host even one more CP op: stop reserving; the
        // min-EFT fallback below will place the remainder.
        result.memory_overflow = true;
        break;
      }
      for (size_t i = pos; i < pos + best_count; ++i) {
        const OpId id = critical_path[i];
        cp_device[static_cast<size_t>(id)] = best;
        planned_mem[static_cast<size_t>(best)] +=
            mem_need[static_cast<size_t>(id)];
      }
      pos += best_count;
    }
  }

  // ---- The dense view -------------------------------------------------------
  // One pass over the slots builds all the list scheduler reads of the
  // graph: the live ops in slot order, each live op's live in-arcs
  // (producer, bytes) and live out-arcs (consumer, bytes) as CSR rows in
  // its edge-list order, and its colocation anchor. A live edge has two live
  // endpoints (graph.h), so an arc is live iff its edge is.
  struct Arc {
    OpId op = kInvalidOp;
    int64_t bytes = 0;
  };
  TaggedVector<OpId> live;
  live.reserve(static_cast<size_t>(g.num_live_ops()));
  TaggedVector<int32_t> in_begin(slots + 1, 0);
  TaggedVector<int32_t> out_begin(slots + 1, 0);
  TaggedVector<Arc> in_arcs;
  TaggedVector<Arc> out_arcs;
  in_arcs.reserve(static_cast<size_t>(g.num_edge_slots()));
  out_arcs.reserve(static_cast<size_t>(g.num_edge_slots()));
  TaggedVector<OpId> anchor(slots, kInvalidOp);
  for (OpId id = 0; id < g.num_slots(); ++id) {
    const size_t i = static_cast<size_t>(id);
    const Operation& o = g.op(id);
    if (!o.dead) {
      live.push_back(id);
      anchor[i] = o.colocate_with;
      for (EdgeId e : g.in_edges(id)) {
        const Edge& edge = g.edge(e);
        if (!edge.dead) in_arcs.push_back(Arc{edge.src, edge.bytes});
      }
      for (EdgeId e : g.out_edges(id)) {
        const Edge& edge = g.edge(e);
        if (!edge.dead) out_arcs.push_back(Arc{edge.dst, edge.bytes});
      }
    }
    in_begin[i + 1] = static_cast<int32_t>(in_arcs.size());
    out_begin[i + 1] = static_cast<int32_t>(out_arcs.size());
  }

  // ---- List scheduling ------------------------------------------------------
  // Rank-ordered priority queue, gated by precedence (an op becomes eligible
  // once all predecessors are placed) so ready times are always computable.
  TaggedVector<int32_t> unplaced_preds(slots, 0);
  std::priority_queue<ReadyOp, TaggedVector<ReadyOp>> queue;
  for (OpId id : live) {
    const size_t i = static_cast<size_t>(id);
    unplaced_preds[i] = in_begin[i + 1] - in_begin[i];
    if (unplaced_preds[i] == 0) queue.push(ReadyOp{rank[i], id});
  }

  // Channel model mirroring the executor: one egress and one ingress copy
  // engine per device, and TF rendezvous dedup (a tensor is sent once per
  // destination device). Without this, DPOS systematically under-prices
  // placements that funnel many large tensors into one device — the exact
  // error that made gradient-aggregation traffic look free.
  TaggedVector<double> egress_free(devs, 0.0);
  TaggedVector<double> ingress_free(devs, 0.0);
  // Arrival of op's output on device d at sent_arrival[op * n_dev + d], or
  // -1 while it has not been sent there (arrivals are >= 0).
  TaggedVector<double> sent_arrival(slots * devs, -1.0);
  auto sent = [&](OpId op, DeviceId d) -> double& {
    return sent_arrival[static_cast<size_t>(op) * devs +
                        static_cast<size_t>(d)];
  };

  // The op being placed, as every candidate device sees it: its placed
  // producers (one per live in-arc, in edge order) and the devices its
  // colocation-pinned consumers sit on. Gathered once per pop; nothing in
  // them moves until the op is scheduled.
  struct Producer {
    OpId op = kInvalidOp;
    DeviceId device = kInvalidDevice;
    double finish = 0.0;
    int64_t bytes = 0;
  };
  struct PinnedConsumer {
    DeviceId device = kInvalidDevice;
    int64_t bytes = 0;
  };
  TaggedVector<Producer> producers;
  TaggedVector<PinnedConsumer> pinned;
  auto gather = [&](OpId op) {
    const size_t oi = static_cast<size_t>(op);
    producers.clear();
    for (int32_t a = in_begin[oi]; a < in_begin[oi + 1]; ++a) {
      const Arc& arc = in_arcs[static_cast<size_t>(a)];
      const size_t src = static_cast<size_t>(arc.op);
      producers.push_back(Producer{arc.op, result.strategy.placement[src],
                                   result.finish_time[src], arc.bytes});
    }
    pinned.clear();
    for (int32_t a = out_begin[oi]; a < out_begin[oi + 1]; ++a) {
      // Consumers are unplaced, but colocation can already pin them
      // (gradients flowing toward a parameter's aggregation/update
      // site) — exactly the traffic §6.5's placements avoid.
      const Arc& arc = out_arcs[static_cast<size_t>(a)];
      const OpId pin = anchor[static_cast<size_t>(arc.op)];
      if (pin == kInvalidOp) continue;
      const DeviceId ad = result.strategy.placement[static_cast<size_t>(pin)];
      if (ad != kInvalidDevice) pinned.push_back(PinnedConsumer{ad, arc.bytes});
    }
  };

  // The gathered op's earliest data-ready time on every device, and its
  // estimated remote traffic there (producers first, then pinned
  // consumers), built producer by producer across devices. Evaluation-only:
  // consults but does not advance the channel state.
  TaggedVector<double> ready_at(devs, 0.0);
  TaggedVector<double> traffic(devs, 0.0);
  auto evaluate_devices = [&] {
    std::fill(ready_at.begin(), ready_at.end(), 0.0);
    std::fill(traffic.begin(), traffic.end(), 0.0);
    for (const Producer& p : producers) {
      const double* arrivals = &sent(p.op, 0);
      const double engine_free =
          std::max(p.finish, egress_free[static_cast<size_t>(p.device)]);
      for (DeviceId d = 0; d < n_dev; ++d) {
        const size_t di = static_cast<size_t>(d);
        const double dur = comm_t.Estimate(p.device, d, p.bytes);
        traffic[di] += dur;
        double arrival = p.finish;
        if (p.device != d) {
          arrival = arrivals[di];
          if (arrival < 0.0)
            arrival = std::max(engine_free, ingress_free[di]) + dur;
        }
        ready_at[di] = std::max(ready_at[di], arrival);
      }
    }
    for (const PinnedConsumer& c : pinned)
      for (DeviceId d = 0; d < n_dev; ++d)
        traffic[static_cast<size_t>(d)] +=
            comm_t.Estimate(d, c.device, c.bytes);
  };
  auto fits = [&](OpId op, DeviceId d) {
    return planned_mem[static_cast<size_t>(d)] +
               mem_need[static_cast<size_t>(op)] <=
           mem_budget[static_cast<size_t>(d)];
  };

  // Min-(score, index) over the memory-feasible devices, where the score of
  // `d` is EarliestSlot(ready, w) + w, plus λ·traffic when comm_affinity >
  // 0. Returns kInvalidDevice when nothing fits, else the device, with the
  // slot it found there in *start. Every feasible device first gets the
  // bound ready + w (+ the same term): EarliestSlot never returns less than
  // ready and IEEE addition is monotone, so no score is below its device's
  // bound. The device with the smallest bound is scored first; after it, a
  // device is scored only while its bound can still beat the best (score,
  // index) pair. The same device wins as if every device were scored,
  // including ties, which go to the lowest index.
  TaggedVector<double> bound(devs, kInf);
  auto best_device = [&](OpId op, double* start) {
    evaluate_devices();
    DeviceId first = kInvalidDevice;
    double first_bound = kInf;
    for (DeviceId d = 0; d < n_dev; ++d) {
      const size_t di = static_cast<size_t>(d);
      bound[di] = kInf;
      if (!fits(op, d)) continue;
      bound[di] = ready_at[di] + comp_t.Time(op, d);
      if (options.comm_affinity > 0.0)
        bound[di] += options.comm_affinity * traffic[di];
      if (bound[di] < first_bound) {
        first_bound = bound[di];
        first = d;
      }
    }
    DeviceId best = kInvalidDevice;
    double best_score = kInf;
    auto beats_best = [&](double value, DeviceId d) {
      return value < best_score || (value == best_score && d < best);
    };
    auto score = [&](DeviceId d) {
      const size_t di = static_cast<size_t>(d);
      if (!beats_best(bound[di], d)) return;
      const double w = comp_t.Time(op, d);
      const double slot = timeline[di].EarliestSlot(ready_at[di], w);
      double s = slot + w;
      if (options.comm_affinity > 0.0)
        s += options.comm_affinity * traffic[di];
      if (beats_best(s, d)) {
        best = d;
        best_score = s;
        *start = slot;
      }
    };
    if (first == kInvalidDevice) return best;
    score(first);
    for (DeviceId d = 0; d < n_dev; ++d)
      if (d != first) score(d);
    return best;
  };

  // Places the gathered `op` on `d`, first booking its incoming transfers on
  // the copy engines (dedup'd per tensor). `scored_start` is the slot the
  // scan found on `d`, or null when `d` was not scored. It is reused unless
  // a transfer was booked: booking advances the engines, which moves the
  // ready time, so the slot is searched again.
  auto schedule_on = [&](OpId op, DeviceId d, const double* scored_start) {
    const size_t di = static_cast<size_t>(d);
    bool booked = false;
    double ready = 0.0;
    for (const Producer& p : producers) {
      double arrival = p.finish;
      if (p.device != d) {
        double& sent_at = sent(p.op, d);
        if (sent_at < 0.0) {
          booked = true;
          const double start = std::max(
              {p.finish, egress_free[static_cast<size_t>(p.device)],
               ingress_free[di]});
          const double dur = comm_t.Estimate(p.device, d, p.bytes);
          egress_free[static_cast<size_t>(p.device)] = start + dur;
          ingress_free[di] = start + dur;
          sent_at = start + dur;
        }
        arrival = sent_at;
      }
      ready = std::max(ready, arrival);
    }
    const double w = comp_t.Time(op, d);
    const double start = scored_start != nullptr && !booked
                             ? *scored_start
                             : timeline[di].EarliestSlot(ready, w);
    timeline[di].Commit(start, w, op);
    result.strategy.placement[static_cast<size_t>(op)] = d;
    result.start_time[static_cast<size_t>(op)] = start;
    result.finish_time[static_cast<size_t>(op)] = start + w;
  };

  // Full candidate table for one op, as the scheduler would have seen it at
  // decision time. Evaluation-only, so recording after the decision but
  // before schedule_on reproduces the decision's inputs exactly.
  auto record_decision = [&](OpId op, DeviceId chosen, PlacementReason reason) {
    evaluate_devices();
    PlacementDecision dec;
    dec.op = op;
    dec.op_name = g.op(op).name;
    dec.chosen = chosen;
    dec.reason = reason;
    dec.candidates.reserve(devs);
    for (DeviceId d = 0; d < n_dev; ++d) {
      const size_t di = static_cast<size_t>(d);
      CandidateScore c;
      c.device = d;
      const double w = comp_t.Time(op, d);
      c.est_s = ready_at[di];
      c.eft_s = timeline[di].EarliestSlot(c.est_s, w) + w;
      c.memory_rejected = !fits(op, d);
      c.score_s = kInf;
      if (!c.memory_rejected) {
        c.score_s = c.eft_s;
        if (options.comm_affinity > 0.0)
          c.score_s += options.comm_affinity * traffic[di];
      }
      if (d == chosen) dec.chosen_eft_s = c.eft_s;
      dec.candidates.push_back(c);
    }
    result.provenance.push_back(std::move(dec));
  };

  FASTT_TRACE_SPAN("dpos/list_schedule");
  size_t placed = 0;
  while (!queue.empty()) {
    const OpId op = queue.top().op;
    queue.pop();
    FASTT_TRACE_COUNTER("dpos/ready_queue", queue.size());
    const size_t oi = static_cast<size_t>(op);
    gather(op);

    DeviceId chosen = kInvalidDevice;
    PlacementReason reason = PlacementReason::kBestEft;
    bool charge_mem = true;
    double scored_start = 0.0;
    const OpId colocate = anchor[oi];
    const DeviceId cp_dev = cp_device[oi];
    if (colocate != kInvalidOp &&
        result.strategy.placement[static_cast<size_t>(colocate)] !=
            kInvalidDevice) {
      chosen = result.strategy.placement[static_cast<size_t>(colocate)];
      reason = PlacementReason::kColocated;
    } else if (cp_dev != kInvalidDevice) {
      chosen = cp_dev;  // memory already reserved in phase 1
      reason = PlacementReason::kCriticalPathDevice;
      charge_mem = false;
    } else {
      chosen = best_device(op, &scored_start);
      if (chosen == kInvalidDevice) {
        // Nothing fits: overflow onto the device with the most headroom so a
        // complete (if infeasible) schedule is still produced for diagnosis.
        result.memory_overflow = true;
        reason = PlacementReason::kMemoryOverflow;
        int64_t best_free = std::numeric_limits<int64_t>::min();
        for (DeviceId d = 0; d < n_dev; ++d) {
          const int64_t free = mem_budget[static_cast<size_t>(d)] -
                               planned_mem[static_cast<size_t>(d)];
          if (free > best_free) {
            best_free = free;
            chosen = d;
          }
        }
      }
    }

    if (options.record_provenance) record_decision(op, chosen, reason);
    if (charge_mem)
      planned_mem[static_cast<size_t>(chosen)] += mem_need[oi];

    schedule_on(op, chosen,
                reason == PlacementReason::kBestEft ? &scored_start : nullptr);
    ++placed;

    // Count down once per live out-arc. The order in which successors
    // become ready does not matter: ReadyOp is a strict total order on
    // (rank, id), so the queue pops the same sequence either way.
    for (int32_t a = out_begin[oi]; a < out_begin[oi + 1]; ++a) {
      const OpId dst = out_arcs[static_cast<size_t>(a)].op;
      if (--unplaced_preds[static_cast<size_t>(dst)] == 0)
        queue.push(ReadyOp{rank[static_cast<size_t>(dst)], dst});
    }
  }
  FASTT_CHECK_MSG(placed == live.size(),
                  "DPOS failed to place every op (cycle?)");
  CurrentMetrics().AddCounter("dpos/ops_placed",
                              static_cast<int64_t>(placed));
  if (result.memory_overflow)
    CurrentMetrics().AddCounter("dpos/memory_overflows");

  for (OpId id : live)
    result.ft_exit =
        std::max(result.ft_exit, result.finish_time[static_cast<size_t>(id)]);
  result.strategy.predicted_makespan = result.ft_exit;
  EmitMemTraceCounters();
  return result;
}

void OrderDposSchedule(const Graph& g, DposResult* result) {
  // Sort by scheduled start time, ties broken topologically. Unknown costs
  // are priced 0, so whole chains can share one start time; a raw-id
  // tie-break then lets a consumer precede its producer (rewrites append
  // split/concat nodes at high slot ids), and the resulting priorities would
  // contradict the data deps (verifier rule order.deps).
  MemTagScope mem_scope(MemTag::kDpos);
  TaggedVector<int64_t> topo_pos(static_cast<size_t>(g.num_slots()), 0);
  int64_t pos = 0;
  for (OpId id : g.TopoOrder()) topo_pos[static_cast<size_t>(id)] = pos++;
  const DposResult& r = *result;
  result->strategy.execution_order = g.LiveOps();
  std::sort(result->strategy.execution_order.begin(),
            result->strategy.execution_order.end(), [&](OpId a, OpId b) {
              const double sa = r.start_time[static_cast<size_t>(a)];
              const double sb = r.start_time[static_cast<size_t>(b)];
              if (sa != sb) return sa < sb;
              return topo_pos[static_cast<size_t>(a)] <
                     topo_pos[static_cast<size_t>(b)];
            });
}

TaggedVector<OpId> RealizedCriticalPath(const Graph& g,
                                        const DposResult& result,
                                        const CommCostModel& comm) {
  // Start from the op that finishes last, then repeatedly follow the
  // predecessor whose arrival bound the op's start (largest arrival time).
  OpId cur = kInvalidOp;
  for (OpId id : g.LiveOps()) {
    if (cur == kInvalidOp || result.finish_time[static_cast<size_t>(id)] >
                                 result.finish_time[static_cast<size_t>(cur)])
      cur = id;
  }
  TaggedVector<OpId> path{TaggedAlloc<OpId>(MemTag::kDpos)};
  while (cur != kInvalidOp) {
    path.push_back(cur);
    OpId binding = kInvalidOp;
    double best_arrival = -1.0;
    const DeviceId d = result.strategy.placement[static_cast<size_t>(cur)];
    for (EdgeId e : g.in_edges(cur)) {
      const Edge& edge = g.edge(e);
      if (edge.dead || g.op(edge.src).dead) continue;
      const DeviceId pd =
          result.strategy.placement[static_cast<size_t>(edge.src)];
      const double arrival =
          result.finish_time[static_cast<size_t>(edge.src)] +
          (pd == d ? 0.0 : comm.Estimate(pd, d, edge.bytes));
      if (arrival > best_arrival) {
        best_arrival = arrival;
        binding = edge.src;
      }
    }
    cur = binding;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace fastt
