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
// track_memory off, and a hand-built case pins the finish-before-arrival
// rule for events at one instant.
//
// The golden is a 64-bit FNV-1a over every field of each result: makespan,
// op records, transfers in push order, busy times, peaks, the OOM flag and
// devices, the totals and the memory timeline, doubles by their bit
// patterns. A change to the simulator's internals that claims to keep its
// output must keep these; a change that means to move the output replaces
// them (a failure prints the new value) and says why. The goldens assume
// IEEE-754 doubles without FMA contraction, as on the x86-64 builds the
// suite runs on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "core/data_parallel.h"
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
  uint64_t golden;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.model << " " << c.servers << "x" << c.gpus_per_server;
}

class SimGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SimGolden, EveryResultFieldMatches) {
  const GoldenCase& c = GetParam();
  const SimInput canonical = Canonical(c.model, c.servers, c.gpus_per_server);
  Fnv1a h;
  MixRun(h, canonical, Options(DispatchMode::kFifo, 0.0, 1, canonical));
  MixRun(h, canonical, Options(DispatchMode::kRandom, 0.1, 7, canonical));

  const SimInput perturbed = Perturbed(canonical);
  // 2 devices: FIFO, 4: random, 8: priority.
  const auto rotating = static_cast<DispatchMode>(
      std::bit_width(static_cast<unsigned>(canonical.cluster.num_devices())) -
      2);
  MixRun(h, perturbed, Options(DispatchMode::kPriority, 0.0, 1, perturbed));
  MixRun(h, perturbed, Options(rotating, 0.1, 8, perturbed));

  EXPECT_EQ(h.value(), c.golden)
      << StrFormat("new golden 0x%016llx",
                   static_cast<unsigned long long>(h.value()));
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, SimGolden,
    ::testing::Values(
        GoldenCase{"lenet", 1, 2, 0x4ca7643e4e67ffa1ULL},
        GoldenCase{"lenet", 1, 4, 0xcffab075dbb1d84eULL},
        GoldenCase{"lenet", 1, 8, 0x073c59539152c194ULL},
        GoldenCase{"alexnet", 1, 2, 0xc08584f04861472dULL},
        GoldenCase{"alexnet", 1, 4, 0x4a857957797ce3baULL},
        GoldenCase{"alexnet", 1, 8, 0x63f469bdfb30f63cULL},
        GoldenCase{"vgg19", 1, 2, 0x38051060c2c5930bULL},
        GoldenCase{"vgg19", 1, 4, 0xec245ca88696a024ULL},
        GoldenCase{"vgg19", 1, 8, 0x3ec1a2c8b3956853ULL},
        GoldenCase{"vgg19", 2, 4, 0x94fb0d25856670c8ULL},
        GoldenCase{"inception_v3", 1, 2, 0x83e487fc42ec1261ULL},
        GoldenCase{"inception_v3", 1, 4, 0xffad8395641cb4cdULL},
        GoldenCase{"inception_v3", 1, 8, 0x0b5d863b7be32557ULL},
        GoldenCase{"resnet200", 1, 2, 0x48f86e3c537c1e7fULL},
        GoldenCase{"resnet200", 1, 4, 0xb515e676894fb657ULL},
        GoldenCase{"resnet200", 1, 8, 0xbb34210dcdafcb5dULL},
        GoldenCase{"gnmt", 1, 2, 0xd8de05e4a347fe52ULL},
        GoldenCase{"gnmt", 1, 4, 0x75d839c21aaddaadULL},
        GoldenCase{"gnmt", 1, 8, 0x32ada9b4d58fde5eULL},
        GoldenCase{"rnnlm", 1, 2, 0x1c6b1f9bd8e59410ULL},
        GoldenCase{"rnnlm", 1, 4, 0x6f29f05516d7a9a5ULL},
        GoldenCase{"rnnlm", 1, 8, 0x41ee09fb6a69f403ULL},
        GoldenCase{"transformer", 1, 2, 0x076ada89c970a665ULL},
        GoldenCase{"transformer", 1, 4, 0x4b096ab9ff7002f1ULL},
        GoldenCase{"transformer", 1, 8, 0x5b293e82c6b639c4ULL},
        GoldenCase{"bert_large", 1, 2, 0x99240d4797ad98f1ULL},
        GoldenCase{"bert_large", 1, 4, 0x5949db38e173b435ULL},
        GoldenCase{"bert_large", 1, 8, 0x633f36b2e5ab26d4ULL}),
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
  EXPECT_EQ(with_timeline.value(), 0xa04ab783d1037ac8ULL)
      << StrFormat("new timeline golden 0x%016llx",
                   static_cast<unsigned long long>(with_timeline.value()));

  SimOptions untracked = Options(DispatchMode::kPriority, 0.0, 1, in);
  untracked.track_memory = false;
  Fnv1a without_memory;
  MixRun(without_memory, in, untracked);
  EXPECT_EQ(without_memory.value(), 0xee840fcb10facbe6ULL)
      << StrFormat("new untracked golden 0x%016llx",
                   static_cast<unsigned long long>(without_memory.value()));
}

// The zoo never lines a finish up with a cross-device arrival on the same
// device at one instant, so the kind-before-op rule of the canonical order is
// pinned on a hand-built case with exact binary timings. Device 1 runs q
// (2 s) while r (1 s) waits behind it by priority; p finishes on device 0 at
// 1 s and its tensor lands on device 1 at exactly 2 s, making c, which
// outranks r, ready at the instant q finishes. The finish goes first, so r
// takes the device at 2 s and c follows at 3 s, although c's op id is below
// q's.
TEST(SimGoldenOptions, FinishRanksBeforeArrivalAtOneInstant) {
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
  EXPECT_EQ(result.op_records[static_cast<size_t>(r)].start, 2.0);
  EXPECT_EQ(result.op_records[static_cast<size_t>(c)].start, 3.0);
  EXPECT_EQ(result.makespan, 4.0);
}

}  // namespace
}  // namespace fastt
