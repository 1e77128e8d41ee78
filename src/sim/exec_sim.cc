#include "sim/exec_sim.h"

#include <algorithm>
#include <array>
#include <queue>

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

// Canonical order (time, kind, op, edge): a pure function of event content,
// so simultaneous events are processed in the same order however they were
// pushed. The key packs (kind, op, edge + 1) into bit 63, bits 32..62 and
// bits 0..31, so one unsigned compare orders the triple; op ids and edge
// ids are non-negative int32s, so they always fit. (No two events share a
// key: an op finishes once, an edge delivers once.)
static_assert(sizeof(OpId) == 4 && sizeof(EdgeId) == 4);
constexpr uint64_t kArrival = uint64_t{1} << 63;  // kind bit; 0 = op finish

uint64_t EventKey(uint64_t kind, OpId op, EdgeId edge = -1) {
  return kind | static_cast<uint64_t>(op) << 32 |
         (static_cast<uint32_t>(edge) + 1U);
}

struct Event {
  double time = 0.0;
  uint64_t key = 0;
  OpId op() const { return static_cast<OpId>((key & ~kArrival) >> 32); }
  EdgeId edge() const { return static_cast<EdgeId>(key & 0xffffffffU) - 1; }
  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return key > other.key;
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

// Per-slot state: what the loop reads about an op, filled once per call,
// and its counters.
struct OpState {
  double duration = 0.0;  // ground truth on its device, times noise
  int64_t temp_bytes = 0;
  int64_t out_bytes = 0;
  // Staged on this op's device by cross-device transfers; freed at finish.
  int64_t staged_bytes = 0;
  int32_t pending = 0;  // tensor arrivals to wait for, one per live in-edge
  // Holds on the output buffer: same-device consumers release theirs when
  // they finish (they read it in place), cross-device ones when it lands.
  int32_t out_refs = 0;
  bool live = false;
  bool math = false;
};

struct OutEdge {
  EdgeId id = -1;
  OpId dst = kInvalidOp;
  int64_t bytes = 0;
};

struct DeviceState {
  std::priority_queue<ReadyEntry, TaggedVector<ReadyEntry>,
                      std::greater<ReadyEntry>> ready;
  bool busy = false;
  // Copy-engine model: a small number of DMA engines per device and
  // direction (V100s expose a few; TF stripes copies across them), so
  // concurrent transfers sharing an endpoint serialize once the engines are
  // saturated. Each slot holds when that engine is next free.
  std::array<double, SimOptions::kCopyEnginesPerDirection> egress_free{};
  std::array<double, SimOptions::kCopyEnginesPerDirection> ingress_free{};
  // TF rendezvous semantics: one physical send per (tensor, destination
  // device); later consumers here alias the landed copy. An op finishes
  // once, so stamping the last sender is exact.
  OpId sent_by = kInvalidOp;
  double sent_at = 0.0;
};

// Live bytes per device. Peaks, and the coalesced timeline when asked for,
// are written straight into the result.
class MemoryTracker {
 public:
  MemoryTracker(bool enabled, SimResult& result)
      : enabled_(enabled), usage_(result.peak_memory.size(), 0),
        result_(result) {}

  void Alloc(DeviceId d, int64_t bytes, double now) {
    if (!enabled_ || bytes == 0) return;
    auto i = static_cast<size_t>(d);
    usage_[i] += bytes;
    result_.peak_memory[i] = std::max(result_.peak_memory[i], usage_[i]);
    Sample(i, now);
  }
  void Free(DeviceId d, int64_t bytes, double now) {
    if (!enabled_ || bytes == 0) return;
    usage_[static_cast<size_t>(d)] -= bytes;
    Sample(static_cast<size_t>(d), now);
  }

 private:
  void Sample(size_t i, double now) {
    if (result_.memory_timeline.empty()) return;
    auto& t = result_.memory_timeline[i];
    // Coalesce same-timestamp updates into the final value at that instant.
    if (!t.empty() && t.back().time == now)
      t.back().bytes = usage_[i];
    else
      t.push_back(MemorySample{now, usage_[i]});
  }

  bool enabled_;
  TaggedVector<int64_t> usage_;
  SimResult& result_;
};

}  // namespace

SimResult Simulate(const Graph& g, const std::vector<DeviceId>& placement,
                   const Cluster& cluster, const SimOptions& options) {
  FASTT_SCOPED_TIMER("sim/simulate");
  FASTT_CHECK_MSG(placement.size() >= static_cast<size_t>(g.num_slots()),
                  "placement must cover all op slots");
  if (options.dispatch == DispatchMode::kPriority) {
    FASTT_CHECK_MSG(
        options.priorities.size() >= static_cast<size_t>(g.num_slots()),
        "priority dispatch requires priorities per op");
  }
  // Every container below is per-call scratch, charged to sim/events.
  MemTagScope mem_scope(MemTag::kSimEvents);
  const auto slots = static_cast<size_t>(g.num_slots());
  const auto edge_slots = static_cast<size_t>(g.num_edge_slots());
  const auto devices = static_cast<size_t>(cluster.num_devices());
  auto device_of = [&](OpId op) { return placement[static_cast<size_t>(op)]; };

  SimResult result;
  result.op_records.assign(slots, OpRecord{});
  result.device_busy_s.assign(devices, 0.0);
  result.peak_memory.assign(devices, 0);
  if (options.track_memory && options.record_memory_timeline)
    result.memory_timeline.resize(devices);
  MemoryTracker memory(options.track_memory, result);
  std::priority_queue<Event, TaggedVector<Event>, std::greater<Event>> events;
  TaggedVector<DeviceState> dev(devices);
  uint64_t ready_counter = 0;

  auto push_ready = [&](OpId op) {
    const uint64_t seq = ready_counter++;
    int64_t key = static_cast<int64_t>(seq);  // FIFO: arrival order
    if (options.dispatch == DispatchMode::kRandom) {
      // Deterministic pseudo-random dequeue order per (seed, op).
      Rng rng(options.seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(op));
      key = static_cast<int64_t>(rng.NextU64() >> 1);
    } else if (options.dispatch == DispatchMode::kPriority) {
      key = options.priorities[static_cast<size_t>(op)];
    }
    dev[static_cast<size_t>(device_of(op))].ready.push(
        ReadyEntry{key, seq, op});
  };

  // The dense view, built in two passes over the slots in id order. The
  // first fills each live op's state; parameters are resident for the whole
  // iteration. The second lays out two CSR rows per op, both in the op's
  // edge-list order: the producers of its live in-edges on its own device
  // (the holds it releases when it finishes) and its live out-edges. It also
  // records each live edge's producer, for arrivals. An edge is live when
  // it and its other end are. Ops with no inputs are ready at t = 0.
  TaggedVector<OpState> state(slots);
  size_t live = 0;
  for (OpId id = 0; id < g.num_slots(); ++id) {
    const Operation& o = g.op(id);
    if (o.dead) continue;
    ++live;
    const DeviceId d = device_of(id);
    FASTT_CHECK_MSG(d >= 0 && d < cluster.num_devices(),
                    "op " + o.name + " has no valid device");
    memory.Alloc(d, o.resident_bytes(), 0.0);
    OpState& s = state[static_cast<size_t>(id)];
    s.duration = GroundTruthDuration(o, cluster.device(d)) *
                 SimNoiseFactor(options.seed, id, options.noise_cv);
    s.temp_bytes = o.temp_bytes;
    s.out_bytes = o.output_bytes();
    s.live = true;
    s.math = IsMathOp(o.type);
  }
  TaggedVector<uint32_t> hold_begin(slots + 1, 0);
  TaggedVector<uint32_t> out_begin(slots + 1, 0);
  TaggedVector<OpId> holds;
  TaggedVector<OutEdge> out;
  holds.reserve(edge_slots);
  out.reserve(edge_slots);
  TaggedVector<OpId> producer(edge_slots, kInvalidOp);
  for (OpId id = 0; id < g.num_slots(); ++id) {
    const auto i = static_cast<size_t>(id);
    OpState& s = state[i];
    if (s.live) {
      for (EdgeId e : g.in_edges(id)) {
        const Edge& edge = g.edge(e);
        if (edge.dead || !state[static_cast<size_t>(edge.src)].live) continue;
        ++s.pending;
        if (device_of(edge.src) == device_of(id)) holds.push_back(edge.src);
      }
      for (EdgeId e : g.out_edges(id)) {
        const Edge& edge = g.edge(e);
        if (edge.dead || !state[static_cast<size_t>(edge.dst)].live) continue;
        ++s.out_refs;
        out.push_back(OutEdge{e, edge.dst, edge.bytes});
        producer[static_cast<size_t>(e)] = id;
      }
      if (s.pending == 0) push_ready(id);
    }
    hold_begin[i + 1] = static_cast<uint32_t>(holds.size());
    out_begin[i + 1] = static_cast<uint32_t>(out.size());
  }
  // Bytes an arrival stages on the consumer's device: the edge's bytes for
  // the physical copy, 0 for the arrivals that alias it.
  TaggedVector<int64_t> carried_bytes(edge_slots, 0);

  auto release_output_hold = [&](OpId op, double now) {
    OpState& s = state[static_cast<size_t>(op)];
    if (--s.out_refs == 0) memory.Free(device_of(op), s.out_bytes, now);
  };

  auto try_dispatch = [&](DeviceId d, double now) {
    DeviceState& ds = dev[static_cast<size_t>(d)];
    if (ds.busy || ds.ready.empty()) return;
    const OpId op = ds.ready.top().op;
    ds.ready.pop();
    ds.busy = true;
    const OpState& s = state[static_cast<size_t>(op)];
    auto& rec = result.op_records[static_cast<size_t>(op)];
    rec.op = op;
    rec.device = d;
    rec.start = now;
    rec.finish = now + s.duration;
    memory.Alloc(d, s.temp_bytes, now);
    events.push(Event{rec.finish, EventKey(0, op)});
  };

  for (int32_t d = 0; d < cluster.num_devices(); ++d) try_dispatch(d, 0.0);

  // Events are applied one by one, in canonical order, and dispatch waits
  // for the end of their instant: only once no event at `now` is left do
  // the devices the instant freed or handed a ready op pick their next ops,
  // in ascending id. Every other device is busy or has nothing ready. A
  // zero-duration op dispatched then finishes at `now`, so the instant goes
  // on.
  TaggedVector<DeviceId> touched;
  size_t finished = 0;
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    const double now = ev.time;
    const OpId op = ev.op();
    OpState& s = state[static_cast<size_t>(op)];
    const DeviceId d = device_of(op);

    if ((ev.key & kArrival) == 0) {
      ++finished;
      const auto& rec = result.op_records[static_cast<size_t>(op)];
      result.device_busy_s[static_cast<size_t>(d)] += rec.duration();
      if (s.math) result.total_compute_s += rec.duration();
      memory.Free(d, s.temp_bytes, now);
      memory.Free(d, s.staged_bytes, now);
      s.staged_bytes = 0;
      result.makespan = std::max(result.makespan, now);

      // Output buffer materializes now; terminal ops drop it immediately.
      memory.Alloc(d, s.out_bytes, now);
      if (s.out_refs == 0) memory.Free(d, s.out_bytes, now);

      // This op held its same-device inputs in place while running.
      const auto i = static_cast<size_t>(op);
      for (uint32_t k = hold_begin[i]; k < hold_begin[i + 1]; ++k)
        release_output_hold(holds[k], now);

      for (uint32_t k = out_begin[i]; k < out_begin[i + 1]; ++k) {
        const OutEdge& edge = out[k];
        const uint64_t key = EventKey(kArrival, edge.dst, edge.id);
        const DeviceId dd = device_of(edge.dst);
        DeviceState& to = dev[static_cast<size_t>(dd)];
        if (dd == d) {
          events.push(Event{now, key});
        } else if (to.sent_by == op) {
          events.push(Event{to.sent_at, key});
        } else {
          const Link link = cluster.LinkBetween(d, dd);
          auto& egress = dev[static_cast<size_t>(d)].egress_free;
          auto eg = std::min_element(egress.begin(), egress.end());
          auto in_ = std::min_element(to.ingress_free.begin(),
                                      to.ingress_free.end());
          const double start = std::max({now, *eg, *in_});
          const double occupancy =
              static_cast<double>(edge.bytes) / link.bandwidth;
          const double arrival = start + link.latency + occupancy;
          *eg = start + occupancy;
          *in_ = start + occupancy;
          to.sent_by = op;
          to.sent_at = arrival;
          carried_bytes[static_cast<size_t>(edge.id)] = edge.bytes;
          result.transfers.push_back(TransferRecord{
              op, edge.dst, d, dd, edge.bytes, start, arrival});
          result.total_memcpy_s += arrival - start;
          events.push(Event{arrival, key});
        }
      }
      dev[static_cast<size_t>(d)].busy = false;
      touched.push_back(d);
    } else {  // arrival at consumer `op`
      const auto e = static_cast<size_t>(ev.edge());
      const OpId src = producer[e];
      if (device_of(src) != d) {
        // Only the physical copy stages bytes on the consumer's device;
        // aliased arrivals reuse it. The producer-side buffer hold is
        // released per consumer as arrivals land.
        memory.Alloc(d, carried_bytes[e], now);
        s.staged_bytes += carried_bytes[e];
        release_output_hold(src, now);
      }
      FASTT_CHECK(s.pending > 0);
      if (--s.pending == 0) {
        push_ready(op);
        touched.push_back(d);
      }
    }
    if (events.empty() || events.top().time != now) {
      std::sort(touched.begin(), touched.end());
      for (DeviceId t : touched) try_dispatch(t, now);
      touched.clear();
    }
  }

  FASTT_CHECK_MSG(finished == live,
                  "deadlock: not all ops executed (cycle or missing input)");

  for (int32_t d = 0; d < cluster.num_devices(); ++d) {
    if (result.peak_memory[static_cast<size_t>(d)] >
        cluster.device(d).usable_bytes()) {
      result.oom = true;
      result.oom_devices.push_back(d);
    }
  }

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
