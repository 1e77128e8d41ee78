// Simulator goldens: every SimResult field pinned bit for bit over the zoo.
//
// Each case builds the data-parallel graph of a zoo model at its Table 1
// strong batch and simulates it four times:
//   - the canonical DP placement, FIFO dispatch, no noise;
//   - the canonical DP placement, random dispatch, noise_cv 0.1;
//   - a perturbed input, priority dispatch, no noise;
//   - the perturbed input, noise_cv 0.1, FIFO dispatch at 2 devices, random
//     at 4 and priority at 8.
// The perturbed input splits a few compute-bound ops (tombstoning them and
// their edges), removes one edge between two live ops (a dead edge whose
// endpoints both live) and moves about one op in 16 to a random device.
// Priorities are drawn from a small range, so equal priorities break ties
// by arrival. Two more cases turn record_memory_timeline on and
// track_memory off, and a hand-built case pins that an idle device chooses
// only after every event of its instant is applied.
//
// The golden is a 64-bit FNV-1a over every field of each result: makespan,
// op records, transfers in push order, busy times, peaks, the OOM flag and
// devices, the totals and the memory timeline, doubles by their bit
// patterns. The FIFO runs hash apart from the random and priority runs, so
// a dispatch change that keeps FIFO shows it. A change to the simulator's
// internals that claims to keep its output must keep these; a change that
// means to move the output replaces them (a failure prints the new value)
// and says why. The goldens assume IEEE-754 doubles without FMA
// contraction, as on the x86-64 builds the suite runs on.
//
// PriorityDispatch checks the executor contract itself on the perturbed
// inputs and on RunFastT's pipeline starts: no op starts while a
// better-ranked op on its device is ready and starts later.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/data_parallel.h"
#include "core/pipeline.h"
#include "core/strategy.h"
#include "graph/rewrite.h"
#include "models/model_zoo.h"
#include "sim/exec_sim.h"
#include "util/rng.h"
#include "util/strings.h"

namespace fastt {
namespace {

class Fnv1a {
 public:
  template <typename T>
  void Mix(T value) {
    static_assert(std::is_arithmetic_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void MixResult(Fnv1a& h, const SimResult& r) {
  h.Mix(r.makespan);
  h.Mix(r.op_records.size());
  for (const OpRecord& rec : r.op_records) {
    h.Mix(rec.op);
    h.Mix(rec.device);
    h.Mix(rec.start);
    h.Mix(rec.finish);
  }
  h.Mix(r.transfers.size());
  for (const TransferRecord& t : r.transfers) {
    h.Mix(t.src_op);
    h.Mix(t.dst_op);
    h.Mix(t.src);
    h.Mix(t.dst);
    h.Mix(t.bytes);
    h.Mix(t.start);
    h.Mix(t.arrival);
  }
  h.Mix(r.device_busy_s.size());
  for (double busy : r.device_busy_s) h.Mix(busy);
  h.Mix(r.peak_memory.size());
  for (int64_t peak : r.peak_memory) h.Mix(peak);
  h.Mix(r.oom);
  h.Mix(r.oom_devices.size());
  for (DeviceId d : r.oom_devices) h.Mix(d);
  h.Mix(r.total_compute_s);
  h.Mix(r.total_memcpy_s);
  h.Mix(r.memory_timeline.size());
  for (const auto& samples : r.memory_timeline) {
    h.Mix(samples.size());
    for (const MemorySample& s : samples) {
      h.Mix(s.time);
      h.Mix(s.bytes);
    }
  }
}

struct SimInput {
  Cluster cluster;
  Graph graph;
  std::vector<DeviceId> placement;
  std::vector<int64_t> priorities;
};

DeviceId RandomDevice(Rng& rng, const Cluster& cluster) {
  return static_cast<DeviceId>(
      rng.NextBelow(static_cast<uint64_t>(cluster.num_devices())));
}

std::vector<int64_t> RandomPriorities(const Graph& g, Rng& rng) {
  std::vector<int64_t> priorities(static_cast<size_t>(g.num_slots()));
  for (int64_t& p : priorities) p = static_cast<int64_t>(rng.NextBelow(64));
  return priorities;
}

SimInput Canonical(const char* model, int servers, int gpus_per_server) {
  const ModelSpec& spec = FindModel(model);
  Cluster cluster = servers == 1
                        ? Cluster::SingleServer(gpus_per_server)
                        : Cluster::MultiServer(servers, gpus_per_server);
  DataParallelGraph dp =
      BuildDataParallel(spec.build, spec.name, spec.strong_batch,
                        cluster.num_devices(), Scaling::kStrong);
  std::vector<DeviceId> placement = CanonicalDataParallelPlacement(dp);
  Rng rng(11);
  std::vector<int64_t> priorities = RandomPriorities(dp.graph, rng);
  return SimInput{std::move(cluster), std::move(dp.graph),
                  std::move(placement), std::move(priorities)};
}

// Splits up to three compute-bound ops, removes one edge between live ops
// and moves about one op in 16 to a random device.
SimInput Perturbed(SimInput in) {
  Graph& g = in.graph;
  Rng rng(23);
  const std::vector<OpId> live = g.LiveOps();
  int splits = 0;
  for (int attempt = 0; attempt < 256 && splits < 3; ++attempt) {
    const OpId op = live[rng.NextBelow(live.size())];
    const Operation& o = g.op(op);
    const auto dims = ParallelizableDims(o.type);
    if (o.dead || dims.empty() || !IsComputeBound(o.type)) continue;
    const SplitDim dim = dims[rng.NextBelow(dims.size())];
    const int n = 2 << rng.NextBelow(2);  // 2 or 4
    if (!CanSplit(g, op, dim, n)) continue;
    const DeviceId home = in.placement[static_cast<size_t>(op)];
    const SplitResult split = SplitOperation(g, op, dim, n);
    in.placement.resize(static_cast<size_t>(g.num_slots()), home);
    for (OpId sub : split.sub_ops)
      in.placement[static_cast<size_t>(sub)] = RandomDevice(rng, in.cluster);
    ++splits;
  }
  for (int attempt = 0; attempt < 256; ++attempt) {
    const OpId op = live[rng.NextBelow(live.size())];
    if (g.op(op).dead) continue;
    EdgeId victim = -1;
    for (EdgeId e : g.in_edges(op))
      if (!g.edge(e).dead && !g.op(g.edge(e).src).dead) victim = e;
    if (victim < 0) continue;
    g.RemoveEdge(victim);
    break;
  }
  for (OpId id : g.LiveOps())
    if (rng.NextBelow(16) == 0)
      in.placement[static_cast<size_t>(id)] = RandomDevice(rng, in.cluster);
  in.priorities = RandomPriorities(g, rng);
  return in;
}

SimOptions Options(DispatchMode dispatch, double noise_cv, uint64_t seed,
                   const SimInput& in) {
  SimOptions options;
  options.dispatch = dispatch;
  options.noise_cv = noise_cv;
  options.seed = seed;
  if (dispatch == DispatchMode::kPriority) options.priorities = in.priorities;
  return options;
}

void MixRun(Fnv1a& h, const SimInput& in, const SimOptions& options) {
  MixResult(h, Simulate(in.graph, in.placement, in.cluster, options));
}

struct GoldenCase {
  const char* model;
  int servers;
  int gpus_per_server;
  uint64_t fifo_golden;  // the FIFO runs
  uint64_t golden;       // the random and priority runs
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.model << " " << c.servers << "x" << c.gpus_per_server;
}

class SimGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SimGolden, EveryResultFieldMatches) {
  const GoldenCase& c = GetParam();
  const SimInput canonical = Canonical(c.model, c.servers, c.gpus_per_server);
  Fnv1a fifo;
  Fnv1a scheduled;
  MixRun(fifo, canonical, Options(DispatchMode::kFifo, 0.0, 1, canonical));
  MixRun(scheduled, canonical,
         Options(DispatchMode::kRandom, 0.1, 7, canonical));

  const SimInput perturbed = Perturbed(canonical);
  // 2 devices: FIFO, 4: random, 8: priority.
  const auto rotating = static_cast<DispatchMode>(
      std::bit_width(static_cast<unsigned>(canonical.cluster.num_devices())) -
      2);
  MixRun(scheduled, perturbed,
         Options(DispatchMode::kPriority, 0.0, 1, perturbed));
  MixRun(rotating == DispatchMode::kFifo ? fifo : scheduled, perturbed,
         Options(rotating, 0.1, 8, perturbed));

  EXPECT_EQ(fifo.value(), c.fifo_golden)
      << StrFormat("new FIFO golden 0x%016llx",
                   static_cast<unsigned long long>(fifo.value()));
  EXPECT_EQ(scheduled.value(), c.golden)
      << StrFormat("new golden 0x%016llx",
                   static_cast<unsigned long long>(scheduled.value()));
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, SimGolden,
    ::testing::Values(
        GoldenCase{"lenet", 1, 2, 0x2527400bc952339eULL,
                   0x40fbeb8146e3fd2dULL},
        GoldenCase{"lenet", 1, 4, 0xc593055d62434a7cULL,
                   0x42a49fabcb8b70c4ULL},
        GoldenCase{"lenet", 1, 8, 0x7ab82bb2f40d632aULL,
                   0xf3b02c5a6c123371ULL},
        GoldenCase{"alexnet", 1, 2, 0xdacab2d7d447558aULL,
                   0xe4df9c04091bd03fULL},
        GoldenCase{"alexnet", 1, 4, 0x9292dc272c925b36ULL,
                   0x808f8185fd2b0f59ULL},
        GoldenCase{"alexnet", 1, 8, 0xdf7c51c19f8585beULL,
                   0xb1ac5af777e1c83fULL},
        GoldenCase{"vgg19", 1, 2, 0xe3bf0460daa3a206ULL,
                   0x3dae9ed12cf2f510ULL},
        GoldenCase{"vgg19", 1, 4, 0x79b4af23b4595b57ULL,
                   0xe6011e289ed42a53ULL},
        GoldenCase{"vgg19", 1, 8, 0x8d3ed7dd25dcaf23ULL,
                   0xe1bb85853ba24129ULL},
        GoldenCase{"vgg19", 2, 4, 0x7664d8f948063ec9ULL,
                   0xc533eab91b1a9124ULL},
        GoldenCase{"inception_v3", 1, 2, 0x307a253f7a9d402eULL,
                   0x39d238ffd416f675ULL},
        GoldenCase{"inception_v3", 1, 4, 0x2b1392235e19ae2aULL,
                   0x45d2dee38f61110cULL},
        GoldenCase{"inception_v3", 1, 8, 0x97c23812959d482eULL,
                   0x77e9402180952387ULL},
        GoldenCase{"resnet200", 1, 2, 0x23bd149b33686d20ULL,
                   0x580d58fcc979b5d5ULL},
        GoldenCase{"resnet200", 1, 4, 0x5d90ccf2a1fbc505ULL,
                   0x6622be936ab7c5c9ULL},
        GoldenCase{"resnet200", 1, 8, 0x6f97393da27ab15fULL,
                   0x3c4b0e4b660b8f99ULL},
        GoldenCase{"gnmt", 1, 2, 0x5ea2a6608095e07eULL,
                   0x4dafb6981b5b4878ULL},
        GoldenCase{"gnmt", 1, 4, 0x4e61eaaf78408887ULL,
                   0x7e6753eb12ba6c5cULL},
        GoldenCase{"gnmt", 1, 8, 0x704d42253a594babULL,
                   0xfc1d009551f49ec7ULL},
        GoldenCase{"rnnlm", 1, 2, 0x63671f49b49e72d9ULL,
                   0xec5dd62545643810ULL},
        GoldenCase{"rnnlm", 1, 4, 0x8649cc992ad4b58dULL,
                   0x05d5db516d608692ULL},
        GoldenCase{"rnnlm", 1, 8, 0x075c457809573d90ULL,
                   0x804a630100edf1bbULL},
        GoldenCase{"transformer", 1, 2, 0x6eb54539c1ebb1b4ULL,
                   0xaac424f72eb78d89ULL},
        GoldenCase{"transformer", 1, 4, 0xf779e2609a17e590ULL,
                   0x56713c1f8be1b679ULL},
        GoldenCase{"transformer", 1, 8, 0x4ba4ceea38ac6306ULL,
                   0x3819b9d18ff2327eULL},
        GoldenCase{"bert_large", 1, 2, 0x4528f3940637188bULL,
                   0x409e73a7a4ed7174ULL},
        GoldenCase{"bert_large", 1, 4, 0xb868181c2c65c335ULL,
                   0x16de00726b1231e0ULL},
        GoldenCase{"bert_large", 1, 8, 0x4bd588a6ba468f50ULL,
                   0xab20e8b7d7c157bdULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return StrFormat("%s_%dx%d", info.param.model, info.param.servers,
                       info.param.gpus_per_server);
    });

// The two switches the search leaves at their defaults: the per-device
// memory timeline (trace export) and no memory accounting at all.
TEST(SimGoldenOptions, MemoryTimelineOnAndTrackMemoryOff) {
  const SimInput in = Perturbed(Canonical("inception_v3", 1, 4));
  SimOptions timeline = Options(DispatchMode::kRandom, 0.1, 5, in);
  timeline.record_memory_timeline = true;
  Fnv1a with_timeline;
  MixRun(with_timeline, in, timeline);
  EXPECT_EQ(with_timeline.value(), 0xf9349b08159d2730ULL)
      << StrFormat("new timeline golden 0x%016llx",
                   static_cast<unsigned long long>(with_timeline.value()));

  SimOptions untracked = Options(DispatchMode::kPriority, 0.0, 1, in);
  untracked.track_memory = false;
  Fnv1a without_memory;
  MixRun(without_memory, in, untracked);
  EXPECT_EQ(without_memory.value(), 0x5b2b0ce5a754fdabULL)
      << StrFormat("new untracked golden 0x%016llx",
                   static_cast<unsigned long long>(without_memory.value()));
}

// An idle device picks its next op only after every event of the instant is
// applied. The zoo never lines a finish up with a cross-device arrival on the
// same device at one instant, so the rule is pinned on a hand-built case with
// exact binary timings. Device 1 runs q (2 s) while r (1 s) waits behind it
// by priority; p finishes on device 0 at 1 s and its tensor lands on device 1
// at exactly 2 s, making c, which outranks r, ready at the instant q
// finishes. The finish is applied first, as the canonical order ranks it,
// but device 1 chooses only after the arrival: c takes it at 2 s and r
// follows at 3 s.
TEST(SimGoldenOptions, IdleDeviceSeesEveryEventOfItsInstant) {
  std::vector<Device> devices;
  for (DeviceId d = 0; d < 2; ++d) {
    Device device = MakeV100(d, 0, d);
    device.mem_bandwidth = 1024.0;
    device.launch_overhead_s = 0.0;
    devices.push_back(device);
  }
  InterconnectParams link;
  link.nvlink_bandwidth = 1024.0;
  link.nvlink_latency = 0.5;
  const Cluster cluster(std::move(devices), link);

  Graph g("ties");
  auto add = [&g](const char* name, int64_t bytes_touched) {
    Operation op;
    op.name = name;
    op.bytes_touched = bytes_touched;  // at 512 B/s: 1 s per 512 bytes
    op.efficiency_override = 0.5;
    return g.AddOp(std::move(op));
  };
  const OpId c = add("c", 512);
  const OpId p = add("p", 512);
  const OpId q = add("q", 1024);
  const OpId r = add("r", 512);
  g.AddEdge(p, c, 512);  // 0.5 s latency + 0.5 s on the link

  SimOptions options;
  options.dispatch = DispatchMode::kPriority;
  options.priorities = {1, 0, 0, 2};  // c, p, q, r
  const SimResult result = Simulate(g, {1, 0, 1, 1}, cluster, options);
  ASSERT_EQ(result.transfers.size(), 1u);
  EXPECT_EQ(result.transfers[0].arrival, 2.0);
  EXPECT_EQ(result.op_records[static_cast<size_t>(q)].finish, 2.0);
  EXPECT_EQ(result.op_records[static_cast<size_t>(c)].start, 2.0);
  EXPECT_EQ(result.op_records[static_cast<size_t>(r)].start, 3.0);
  EXPECT_EQ(result.makespan, 4.0);
}

// The executor contract under priority dispatch: no op starts on a device
// while another op on that device is already ready, outranks it (strictly
// smaller priority) and starts later. An op is ready at the latest of its
// live in-edges: the producer's finish on the same device, otherwise the
// arrival of the tensor's physical copy on the op's device (one per tensor
// and destination; later consumers there alias it). Returns the number of
// dispatches that break the contract.
int CountPriorityInversions(const SimInput& in, const SimResult& r) {
  const Graph& g = in.graph;
  auto device = [&](OpId op) { return in.placement[static_cast<size_t>(op)]; };
  auto record = [&](OpId op) -> const OpRecord& {
    return r.op_records[static_cast<size_t>(op)];
  };
  std::map<std::pair<OpId, DeviceId>, double> landed;
  for (const TransferRecord& t : r.transfers)
    landed.emplace(std::make_pair(t.src_op, t.dst), t.arrival);

  std::vector<std::vector<OpId>> on_device(
      static_cast<size_t>(in.cluster.num_devices()));
  std::vector<double> ready(static_cast<size_t>(g.num_slots()), 0.0);
  for (OpId op : g.LiveOps()) {
    for (EdgeId e : g.in_edges(op)) {
      const Edge& edge = g.edge(e);
      if (edge.dead || g.op(edge.src).dead) continue;
      const double at = device(edge.src) == device(op)
                            ? record(edge.src).finish
                            : landed.at({edge.src, device(op)});
      ready[static_cast<size_t>(op)] =
          std::max(ready[static_cast<size_t>(op)], at);
    }
    on_device[static_cast<size_t>(device(op))].push_back(op);
  }

  int inversions = 0;
  for (std::vector<OpId>& ops : on_device) {
    std::vector<OpId> by_ready = ops;
    std::stable_sort(ops.begin(), ops.end(), [&](OpId a, OpId b) {
      return record(a).start < record(b).start;
    });
    std::stable_sort(by_ready.begin(), by_ready.end(), [&](OpId a, OpId b) {
      return ready[static_cast<size_t>(a)] < ready[static_cast<size_t>(b)];
    });
    // Ready ops by priority; an entry that has started by the time it
    // surfaces is dropped.
    std::priority_queue<std::pair<int64_t, OpId>,
                        std::vector<std::pair<int64_t, OpId>>,
                        std::greater<>>
        waiting;
    size_t next = 0;
    for (OpId op : ops) {
      const double start = record(op).start;
      for (; next < by_ready.size() &&
             ready[static_cast<size_t>(by_ready[next])] <= start;
           ++next)
        waiting.emplace(in.priorities[static_cast<size_t>(by_ready[next])],
                        by_ready[next]);
      while (!waiting.empty() && record(waiting.top().second).start <= start)
        waiting.pop();
      if (!waiting.empty() &&
          waiting.top().first < in.priorities[static_cast<size_t>(op)])
        ++inversions;
    }
  }
  return inversions;
}

int SimulateAndCountInversions(const SimInput& in, double noise_cv) {
  const SimOptions options =
      Options(DispatchMode::kPriority, noise_cv, 3, in);
  return CountPriorityInversions(
      in, Simulate(in.graph, in.placement, in.cluster, options));
}

class PriorityDispatch
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PriorityDispatch, NoReadyOpOutranksTheDispatchedOne) {
  const auto& [model, gpus] = GetParam();
  const SimInput perturbed = Perturbed(Canonical(model.c_str(), 1, gpus));
  EXPECT_EQ(SimulateAndCountInversions(perturbed, 0.0), 0);
  EXPECT_EQ(SimulateAndCountInversions(perturbed, 0.1), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, PriorityDispatch,
    ::testing::Combine(
        ::testing::Values("lenet", "alexnet", "vgg19", "inception_v3",
                          "resnet200", "gnmt", "rnnlm", "transformer",
                          "bert_large"),
        ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<PriorityDispatch::ParamType>& info) {
      return StrFormat("%s_%d", std::get<0>(info.param).c_str(),
                       std::get<1>(info.param));
    });

// The same contract on RunFastT's pipeline start, whose micro-batch-major
// order is where an op picked before the instant is over costs the most:
// the last micro-batch's backward ops become ready on their own device at
// the instant the op before them finishes.
TEST(PriorityDispatch, PipelineStartsOfBertLargeAndGnmtOnEightGpus) {
  for (const char* model : {"bert_large", "gnmt"}) {
    const ModelSpec& spec = FindModel(model);
    const Cluster cluster = Cluster::SingleServer(8);
    PipelineGraph p =
        BuildPipeline(spec.build, spec.name, spec.strong_batch, 8, cluster);
    const SimInput in{cluster, std::move(p.graph), std::move(p.placement),
                      std::move(p.priorities)};
    EXPECT_EQ(SimulateAndCountInversions(in, 0.0), 0) << model;
  }
}

}  // namespace
}  // namespace fastt
