#include "sim/exec_sim.h"

#include <algorithm>
#include <map>
#include <queue>
#include <unordered_set>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/memtrack.h"
#include "util/rng.h"

namespace fastt {
namespace {

// Deterministic per-op noise independent of event processing order: each op
// draws from its own stream derived from (run seed, op id).
double SimNoiseFactor(uint64_t seed, OpId op, double cv) {
  if (cv <= 0.0) return 1.0;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(op) + 1);
  const double f = 1.0 + cv * rng.NextGaussian();
  return std::max(0.25, f);
}

struct Event {
  double time = 0.0;
  enum Kind { kOpFinish = 0, kArrival = 1 } kind = kOpFinish;
  OpId op = kInvalidOp;       // kOpFinish: the op; kArrival: consumer op
  EdgeId edge = -1;           // kArrival only
  // Canonical order (time, kind, op, edge): a pure function of event
  // content, so simultaneous events are processed in the same order however
  // they were pushed. (No two events share all four fields: an op finishes
  // once, an edge delivers once.)
  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    if (kind != other.kind) return kind > other.kind;
    if (op != other.op) return op > other.op;
    return edge > other.edge;
  }
};

struct ReadyEntry {
  int64_t key = 0;    // priority (enforce) or arrival sequence (FIFO)
  uint64_t seq = 0;   // insertion tie-break
  OpId op = kInvalidOp;
  bool operator>(const ReadyEntry& other) const {
    if (key != other.key) return key > other.key;
    return seq > other.seq;
  }
};

class MemoryTracker {
 public:
  MemoryTracker(const Cluster& cluster, bool enabled, bool record_timeline)
      : enabled_(enabled),
        usage_(static_cast<size_t>(cluster.num_devices()), 0),
        peak_(static_cast<size_t>(cluster.num_devices()), 0) {
    if (enabled_ && record_timeline)
      timeline_.resize(static_cast<size_t>(cluster.num_devices()));
  }

  void Alloc(DeviceId d, int64_t bytes, double now) {
    if (!enabled_ || bytes == 0) return;
    auto i = static_cast<size_t>(d);
    usage_[i] += bytes;
    peak_[i] = std::max(peak_[i], usage_[i]);
    Sample(i, now);
  }
  void Free(DeviceId d, int64_t bytes, double now) {
    if (!enabled_ || bytes == 0) return;
    usage_[static_cast<size_t>(d)] -= bytes;
    Sample(static_cast<size_t>(d), now);
  }
  const std::vector<int64_t>& peak() const { return peak_; }
  std::vector<std::vector<MemorySample>> TakeTimeline() {
    return std::move(timeline_);
  }

 private:
  void Sample(size_t i, double now) {
    if (timeline_.empty()) return;
    auto& t = timeline_[i];
    // Coalesce same-timestamp updates into the final value at that instant.
    if (!t.empty() && t.back().time == now)
      t.back().bytes = usage_[i];
    else
      t.push_back(MemorySample{now, usage_[i]});
  }

  bool enabled_;
  std::vector<int64_t> usage_;
  std::vector<int64_t> peak_;
  std::vector<std::vector<MemorySample>> timeline_;
};

}  // namespace

bool PlacementParamsFit(const Graph& g,
                        const std::vector<DeviceId>& placement,
                        const Cluster& cluster) {
  std::vector<int64_t> resident(static_cast<size_t>(cluster.num_devices()), 0);
  for (OpId id : g.LiveOps()) {
    const DeviceId d = placement[static_cast<size_t>(id)];
    resident[static_cast<size_t>(d)] += g.op(id).resident_bytes();
  }
  for (int32_t d = 0; d < cluster.num_devices(); ++d)
    if (resident[static_cast<size_t>(d)] > cluster.device(d).usable_bytes())
      return false;
  return true;
}

SimResult Simulate(const Graph& g, const std::vector<DeviceId>& placement,
                   const Cluster& cluster, const SimOptions& options) {
  FASTT_SCOPED_TIMER("sim/simulate");
  const auto live = g.LiveOps();
  FASTT_CHECK_MSG(placement.size() >= static_cast<size_t>(g.num_slots()),
                  "placement must cover all op slots");
  for (OpId id : live) {
    const DeviceId d = placement[static_cast<size_t>(id)];
    FASTT_CHECK_MSG(d >= 0 && d < cluster.num_devices(),
                    "op " + g.op(id).name + " has no valid device");
  }
  if (options.dispatch == DispatchMode::kPriority) {
    FASTT_CHECK_MSG(
        options.priorities.size() >= static_cast<size_t>(g.num_slots()),
        "priority dispatch requires priorities per op");
  }

  SimResult result;
  result.op_records.assign(static_cast<size_t>(g.num_slots()), OpRecord{});
  result.device_busy_s.assign(static_cast<size_t>(cluster.num_devices()), 0.0);

  MemoryTracker memory(cluster, options.track_memory,
                       options.record_memory_timeline);
  // Parameters are resident for the whole iteration.
  for (OpId id : live)
    memory.Alloc(placement[static_cast<size_t>(id)],
                 g.op(id).resident_bytes(), 0.0);

  // Remaining tensor arrivals per op (each live in-edge delivers one).
  std::vector<int32_t> pending(static_cast<size_t>(g.num_slots()), 0);
  // Remaining holds on each op's producer-side output buffer. Same-device
  // consumers release their hold when they finish (they read the buffer in
  // place); cross-device consumers release it once the transfer lands.
  std::vector<int32_t> out_refs(static_cast<size_t>(g.num_slots()), 0);
  // Bytes staged on a consumer's device by cross-device transfers; freed
  // when the consumer finishes.
  std::vector<int64_t> staged_bytes(static_cast<size_t>(g.num_slots()), 0);

  for (OpId id : live) {
    for (EdgeId e : g.in_edges(id)) {
      const Edge& edge = g.edge(e);
      if (!edge.dead && !g.op(edge.src).dead)
        ++pending[static_cast<size_t>(id)];
    }
    for (EdgeId e : g.out_edges(id)) {
      const Edge& edge = g.edge(e);
      if (!edge.dead && !g.op(edge.dst).dead)
        ++out_refs[static_cast<size_t>(id)];
    }
  }

  // Event churn is the simulator's dominant allocation source; charge the
  // queues (and per-device ready heaps) to sim/events so memstat and the
  // trace counters attribute them.
  MemTagScope mem_scope(MemTag::kSimEvents);
  std::priority_queue<Event, TaggedVector<Event>, std::greater<Event>> events(
      std::greater<Event>(), TaggedVector<Event>(TaggedAlloc<Event>(MemTag::kSimEvents)));

  using ReadyQueue =
      std::priority_queue<ReadyEntry, TaggedVector<ReadyEntry>,
                          std::greater<ReadyEntry>>;
  std::vector<ReadyQueue> ready(
      static_cast<size_t>(cluster.num_devices()),
      ReadyQueue(std::greater<ReadyEntry>(),
                 TaggedVector<ReadyEntry>(
                     TaggedAlloc<ReadyEntry>(MemTag::kSimEvents))));
  std::vector<bool> busy(static_cast<size_t>(cluster.num_devices()), false);
  uint64_t ready_counter = 0;

  // Copy-engine model: a small number of DMA engines per device and
  // direction (V100s expose a few; TF stripes copies across them), so
  // concurrent transfers sharing an endpoint serialize once the engines are
  // saturated.
  const size_t engines = SimOptions::kCopyEnginesPerDirection;
  std::vector<std::vector<double>> egress_free(
      static_cast<size_t>(cluster.num_devices()),
      std::vector<double>(engines, 0.0));
  std::vector<std::vector<double>> ingress_free(
      static_cast<size_t>(cluster.num_devices()),
      std::vector<double>(engines, 0.0));
  auto earliest = [](std::vector<double>& v) {
    return std::min_element(v.begin(), v.end());
  };
  // Edges whose arrival carries a physical copy (vs. aliasing a dedup'd one).
  std::unordered_set<EdgeId> carrying_edges;

  auto release_output_hold = [&](OpId producer, double now) {
    if (--out_refs[static_cast<size_t>(producer)] == 0) {
      memory.Free(placement[static_cast<size_t>(producer)],
                  g.op(producer).output_bytes(), now);
    }
  };

  auto push_ready = [&](OpId op) {
    const DeviceId d = placement[static_cast<size_t>(op)];
    ReadyEntry entry;
    entry.seq = ready_counter++;
    switch (options.dispatch) {
      case DispatchMode::kFifo:
        entry.key = static_cast<int64_t>(entry.seq);
        break;
      case DispatchMode::kRandom: {
        // Deterministic pseudo-random dequeue order per (seed, op).
        Rng rng(options.seed * 0x2545f4914f6cdd1dULL +
                static_cast<uint64_t>(op));
        entry.key = static_cast<int64_t>(rng.NextU64() >> 1);
        break;
      }
      case DispatchMode::kPriority:
        entry.key = options.priorities[static_cast<size_t>(op)];
        break;
    }
    entry.op = op;
    ready[static_cast<size_t>(d)].push(entry);
  };

  auto try_dispatch = [&](DeviceId d, double now) {
    auto& q = ready[static_cast<size_t>(d)];
    if (busy[static_cast<size_t>(d)] || q.empty()) return;
    const OpId op = q.top().op;
    q.pop();
    busy[static_cast<size_t>(d)] = true;
    const Operation& o = g.op(op);
    const double dur = GroundTruthDuration(o, cluster.device(d)) *
                       SimNoiseFactor(options.seed, op, options.noise_cv);
    auto& rec = result.op_records[static_cast<size_t>(op)];
    rec.op = op;
    rec.device = d;
    rec.start = now;
    rec.finish = now + dur;
    memory.Alloc(d, o.temp_bytes, now);
    events.push(Event{rec.finish, Event::kOpFinish, op, -1});
  };

  // Seed: ops with no inputs are ready at t = 0.
  for (OpId id : live)
    if (pending[static_cast<size_t>(id)] == 0) push_ready(id);
  for (int32_t d = 0; d < cluster.num_devices(); ++d) try_dispatch(d, 0.0);

  size_t finished = 0;
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    const double now = ev.time;

    if (ev.kind == Event::kOpFinish) {
      ++finished;
      const OpId op = ev.op;
      const Operation& o = g.op(op);
      const DeviceId d = placement[static_cast<size_t>(op)];
      const auto& rec = result.op_records[static_cast<size_t>(op)];
      result.device_busy_s[static_cast<size_t>(d)] += rec.duration();
      if (IsMathOp(o.type)) result.total_compute_s += rec.duration();
      memory.Free(d, o.temp_bytes, now);
      memory.Free(d, staged_bytes[static_cast<size_t>(op)], now);
      staged_bytes[static_cast<size_t>(op)] = 0;
      result.makespan = std::max(result.makespan, now);

      // Output buffer materializes now; terminal ops drop it immediately.
      memory.Alloc(d, o.output_bytes(), now);
      if (out_refs[static_cast<size_t>(op)] == 0)
        memory.Free(d, o.output_bytes(), now);

      // This op held its same-device inputs in place while running.
      for (EdgeId e : g.in_edges(op)) {
        const Edge& edge = g.edge(e);
        if (edge.dead || g.op(edge.src).dead) continue;
        if (placement[static_cast<size_t>(edge.src)] == d)
          release_output_hold(edge.src, now);
      }

      // TF rendezvous semantics: one physical send per (tensor, destination
      // device) — additional consumers on that device alias the landed copy.
      std::map<DeviceId, double> sent_arrival;
      for (EdgeId e : g.out_edges(op)) {
        const Edge& edge = g.edge(e);
        if (edge.dead || g.op(edge.dst).dead) continue;
        const DeviceId dd = placement[static_cast<size_t>(edge.dst)];
        if (dd == d) {
          events.push(Event{now, Event::kArrival, edge.dst, e});
        } else if (auto it = sent_arrival.find(dd);
                   it != sent_arrival.end()) {
          events.push(Event{it->second, Event::kArrival, edge.dst, e});
        } else {
          const Link link = cluster.LinkBetween(d, dd);
          auto eg = earliest(egress_free[static_cast<size_t>(d)]);
          auto in_ = earliest(ingress_free[static_cast<size_t>(dd)]);
          const double start = std::max({now, *eg, *in_});
          const double occupancy =
              static_cast<double>(edge.bytes) / link.bandwidth;
          const double arrival = start + link.latency + occupancy;
          *eg = start + occupancy;
          *in_ = start + occupancy;
          sent_arrival[dd] = arrival;
          carrying_edges.insert(e);
          result.transfers.push_back(TransferRecord{
              op, edge.dst, d, dd, edge.bytes, start, arrival});
          result.total_memcpy_s += arrival - start;
          events.push(Event{arrival, Event::kArrival, edge.dst, e});
        }
      }
      busy[static_cast<size_t>(d)] = false;
      try_dispatch(d, now);
    } else {  // kArrival
      const Edge& edge = g.edge(ev.edge);
      const OpId consumer = ev.op;
      const DeviceId cd = placement[static_cast<size_t>(consumer)];
      const DeviceId pd = placement[static_cast<size_t>(edge.src)];
      if (cd != pd) {
        // Only the physical (carrying) transfer stages a copy on the
        // consumer's device; aliased arrivals reuse it. The producer-side
        // buffer hold is released per consumer as arrivals land.
        if (carrying_edges.count(ev.edge) > 0) {
          memory.Alloc(cd, edge.bytes, now);
          staged_bytes[static_cast<size_t>(consumer)] += edge.bytes;
        }
        release_output_hold(edge.src, now);
      }
      auto& left = pending[static_cast<size_t>(consumer)];
      FASTT_CHECK(left > 0);
      if (--left == 0) {
        push_ready(consumer);
        try_dispatch(cd, now);
      }
    }
  }

  FASTT_CHECK_MSG(finished == live.size(),
                  "deadlock: not all ops executed (cycle or missing input)");

  result.peak_memory = memory.peak();
  for (int32_t d = 0; d < cluster.num_devices(); ++d) {
    if (result.peak_memory[static_cast<size_t>(d)] >
        cluster.device(d).usable_bytes()) {
      result.oom = true;
      result.oom_devices.push_back(d);
    }
  }
  if (options.record_memory_timeline)
    result.memory_timeline = memory.TakeTimeline();

  MetricsRegistry& metrics = CurrentMetrics();
  metrics.AddCounter("sim/runs");
  metrics.AddCounter("sim/ops_executed", static_cast<int64_t>(finished));
  metrics.AddCounter("sim/transfers",
                     static_cast<int64_t>(result.transfers.size()));
  if (result.oom) metrics.AddCounter("sim/oom_runs");
  EmitMemTraceCounters();
  return result;
}

}  // namespace fastt
