// DPOS goldens: every DposResult field pinned bit for bit.
//
// Each zoo case builds the data-parallel graph of a model at its Table 1
// strong batch, seeds the cost models from one noisy profiled step of the
// canonical DP placement (as RunFastT bootstraps them) and runs Dpos. The
// zoo runs at 1x8 and 2x8 with default options. vgg19, gnmt and transformer
// also run at 1x3, 1x4 and 2x8 once per option the search can change:
//   - comm_affinity = 0 (plain min-EFT);
//   - use_critical_path_device = false (every op scored);
//   - a memory_headroom of half an even share of the total MemNeed, so
//     devices fill up and the all-rejected overflow path runs (with the
//     candidate tables recorded);
//   - record_provenance = true (the candidate table of every decision);
//   - empty cost models: every op and transfer priced 0, so the scores of
//     all feasible devices tie and the lowest index must win everywhere.
// Two hand-built cases pin the device scan's tie-break and the slot the
// chosen device's commit recomputes after it books a transfer.
//
// The golden is a 64-bit FNV-1a over every field of each result: the
// placement, execution order and predicted makespan, the start and finish
// time of every slot, ft_exit, the overflow flag, and each provenance
// decision (op, chosen device, reason, and every candidate's est, eft,
// score and memory flag), doubles by their bit patterns. A change to the
// scheduler's internals that claims to keep its output must keep these; a
// change that means to move the output replaces them (a failure prints the
// new value) and says why. The goldens assume IEEE-754 doubles without FMA
// contraction, as on the x86-64 builds the suite runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "core/data_parallel.h"
#include "core/dpos.h"
#include "core/strategy_calculator.h"
#include "graph/memory.h"
#include "models/model_zoo.h"
#include "sim/exec_sim.h"
#include "sim/profiler.h"
#include "util/strings.h"

namespace fastt {
namespace {

class Fnv1a {
 public:
  template <typename T>
  void Mix(T value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
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

void MixResult(Fnv1a& h, const DposResult& r) {
  const Strategy& s = r.strategy;
  h.Mix(s.placement.size());
  for (DeviceId d : s.placement) h.Mix(d);
  h.Mix(s.execution_order.size());
  for (OpId op : s.execution_order) h.Mix(op);
  h.Mix(s.predicted_makespan);
  h.Mix(r.start_time.size());
  for (double t : r.start_time) h.Mix(t);
  h.Mix(r.finish_time.size());
  for (double t : r.finish_time) h.Mix(t);
  h.Mix(r.ft_exit);
  h.Mix(r.memory_overflow);
  h.Mix(r.provenance.size());
  for (const PlacementDecision& dec : r.provenance) {
    h.Mix(dec.op);
    h.Mix(dec.chosen);
    h.Mix(dec.reason);
    h.Mix(dec.chosen_eft_s);
    h.Mix(dec.candidates.size());
    for (const CandidateScore& c : dec.candidates) {
      h.Mix(c.device);
      h.Mix(c.est_s);
      h.Mix(c.eft_s);
      h.Mix(c.score_s);
      h.Mix(c.memory_rejected);
    }
  }
}

struct Profiled {
  Cluster cluster;
  DataParallelGraph dp;
  CompCostModel comp;
  CommCostModel comm;
};

// The DP graph of `model` with cost models from one noisy profiled step of
// its canonical placement.
Profiled Profile(const char* model, int servers, int gpus_per_server) {
  const ModelSpec& spec = FindModel(model);
  Profiled p;
  p.cluster = servers == 1 ? Cluster::SingleServer(gpus_per_server)
                           : Cluster::MultiServer(servers, gpus_per_server);
  p.dp = BuildDataParallel(spec.build, spec.name, spec.strong_batch,
                           p.cluster.num_devices(), Scaling::kStrong);
  SimOptions noisy;
  noisy.dispatch = DispatchMode::kRandom;
  noisy.noise_cv = CalculatorOptions{}.noise_cv;
  noisy.seed = 7;
  const SimResult profiled =
      Simulate(p.dp.graph, CanonicalDataParallelPlacement(p.dp), p.cluster,
               noisy);
  const RunProfile profile = ExtractProfile(p.dp.graph, profiled);
  p.comp.AddProfile(profile);
  p.comm.AddProfile(profile);
  return p;
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

std::string CaseName(const ::testing::TestParamInfo<GoldenCase>& info) {
  return StrFormat("%s_%dx%d", info.param.model, info.param.servers,
                   info.param.gpus_per_server);
}

void ExpectGolden(const Fnv1a& h, uint64_t golden) {
  EXPECT_EQ(h.value(), golden)
      << StrFormat("new golden 0x%016llx",
                   static_cast<unsigned long long>(h.value()));
}

class DposGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DposGolden, DefaultOptions) {
  const GoldenCase& c = GetParam();
  const Profiled p = Profile(c.model, c.servers, c.gpus_per_server);
  Fnv1a h;
  MixResult(h, Dpos(p.dp.graph, p.cluster, p.comp, p.comm));
  ExpectGolden(h, c.golden);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, DposGolden,
    ::testing::Values(
        GoldenCase{"lenet", 1, 8, 0xfdc316ed53f04b42ULL},
        GoldenCase{"lenet", 2, 8, 0x2376e5f6f97e51dcULL},
        GoldenCase{"alexnet", 1, 8, 0x53f91489d1c67353ULL},
        GoldenCase{"alexnet", 2, 8, 0x5b84c90ac8815191ULL},
        GoldenCase{"vgg19", 1, 8, 0xf6639b4fcbdc8677ULL},
        GoldenCase{"vgg19", 2, 8, 0xfbe78bba3304a86cULL},
        GoldenCase{"inception_v3", 1, 8, 0x19bf6fb55e6beb3bULL},
        GoldenCase{"inception_v3", 2, 8, 0x7859d33fabab0a82ULL},
        GoldenCase{"resnet200", 1, 8, 0x8ecec90b6fe96828ULL},
        GoldenCase{"resnet200", 2, 8, 0x1f561707a0165fe2ULL},
        GoldenCase{"gnmt", 1, 8, 0xfd542c1b28c148bfULL},
        GoldenCase{"gnmt", 2, 8, 0x48485dd013505826ULL},
        GoldenCase{"rnnlm", 1, 8, 0x5151855d02e8b456ULL},
        GoldenCase{"rnnlm", 2, 8, 0x0b8cd97d81d974adULL},
        GoldenCase{"transformer", 1, 8, 0x5c899d4a042c3429ULL},
        GoldenCase{"transformer", 2, 8, 0x6c215209d1020f7cULL},
        GoldenCase{"bert_large", 1, 8, 0x760e1e116c4604d1ULL},
        GoldenCase{"bert_large", 2, 8, 0xb05cefc4ef0be8eaULL}),
    CaseName);

class DposGoldenOptions : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DposGoldenOptions, EveryOptionMatches) {
  const GoldenCase& c = GetParam();
  const Profiled p = Profile(c.model, c.servers, c.gpus_per_server);
  const Graph& g = p.dp.graph;
  Fnv1a h;
  auto run = [&](const DposOptions& options) {
    MixResult(h, Dpos(g, p.cluster, p.comp, p.comm, options));
  };

  DposOptions plain_eft;
  plain_eft.comm_affinity = 0.0;
  run(plain_eft);

  DposOptions no_cp_device;
  no_cp_device.use_critical_path_device = false;
  run(no_cp_device);

  int64_t total_need = 0;
  for (OpId id : g.LiveOps()) total_need += MemNeed(g, id);
  DposOptions tight;
  tight.record_provenance = true;
  tight.memory_headroom =
      0.5 * static_cast<double>(total_need) /
      (static_cast<double>(p.cluster.num_devices()) *
       static_cast<double>(p.cluster.device(0).usable_bytes()));
  const DposResult overflowed =
      Dpos(g, p.cluster, p.comp, p.comm, tight);
  EXPECT_TRUE(std::any_of(
      overflowed.provenance.begin(), overflowed.provenance.end(),
      [](const PlacementDecision& dec) {
        return dec.reason == PlacementReason::kMemoryOverflow;
      }));
  MixResult(h, overflowed);

  DposOptions provenance;
  provenance.record_provenance = true;
  run(provenance);

  MixResult(h, Dpos(g, p.cluster, CompCostModel{}, CommCostModel{}));
  ExpectGolden(h, c.golden);
}

INSTANTIATE_TEST_SUITE_P(
    Options, DposGoldenOptions,
    ::testing::Values(GoldenCase{"vgg19", 1, 3, 0xbae0e737e69988ccULL},
                      GoldenCase{"vgg19", 1, 4, 0x9165e8b6ec23ad9aULL},
                      GoldenCase{"vgg19", 2, 8, 0xdf262ecb59fae566ULL},
                      GoldenCase{"gnmt", 1, 3, 0x0f7f6b57e918dbd9ULL},
                      GoldenCase{"gnmt", 1, 4, 0xb3171a6515da0385ULL},
                      GoldenCase{"gnmt", 2, 8, 0xb957428756ead1ddULL},
                      GoldenCase{"transformer", 1, 3, 0x1de2b15541b6c973ULL},
                      GoldenCase{"transformer", 1, 4, 0xbb0589af09327944ULL},
                      GoldenCase{"transformer", 2, 8, 0xfd8d8bdbeeb35c02ULL}),
    CaseName);

// A hand-built graph whose per-device compute times come from one sample
// each, scheduled by DposListSchedule with the critical-path device policy
// off, so every op is scored.
struct HandBuilt {
  Graph g{"hand"};
  CompCostModel comp;
  CommCostModel comm;

  OpId Add(const char* name, std::vector<double> seconds_per_device) {
    Operation op;
    op.name = name;
    const OpId id = g.AddOp(std::move(op));
    for (size_t d = 0; d < seconds_per_device.size(); ++d)
      comp.AddSample(name, static_cast<DeviceId>(d), seconds_per_device[d]);
    return id;
  }

  DposResult Schedule(const Cluster& cluster) const {
    DposOptions options;
    options.use_critical_path_device = false;
    return DposListSchedule(
        g, cluster, BuildDposInputs(g, cluster.num_devices(), comp, comm),
        options);
  }
};

// `busy` runs first (highest rank) and takes device 1 for [0, 1). `op` then
// scores 2 on both devices: on device 0 it starts at 0 and runs 2 s, on
// device 1 it waits for the device and runs 1 s. Device 1 has the smaller
// bound (ready + w: 1 against 2), so it is scored first; device 0's bound
// equals that score, so it must still be scored, and it wins the tie on its
// lower index.
TEST(DposGoldenHandBuilt, LowerIndexWinsBitEqualScores) {
  HandBuilt hb;
  const OpId busy = hb.Add("busy", {100.0, 1.0});
  const OpId op = hb.Add("op", {2.0, 1.0});
  const DposResult r = hb.Schedule(Cluster::SingleServer(2));
  EXPECT_EQ(r.strategy.placement[static_cast<size_t>(busy)], 1);
  EXPECT_EQ(r.strategy.placement[static_cast<size_t>(op)], 0);
  EXPECT_EQ(r.start_time[static_cast<size_t>(op)], 0.0);
  EXPECT_EQ(r.finish_time[static_cast<size_t>(op)], 2.0);
  EXPECT_EQ(r.ft_exit, 2.0);
}

// p0 lands on device 0 and p1 on device 1, both finishing at 1 s; c is
// cheapest on device 2 and needs both tensors there, each 1 s on the wire.
// Scored one at a time, either tensor could arrive at 2 s; committed, the
// two share device 2's ingress engine, so the second arrives at 3 s and c
// must start at 3 s, not at the 2 s its score was computed from.
TEST(DposGoldenHandBuilt, CommittedTransferRecomputesSlot) {
  HandBuilt hb;
  // Every transfer takes 1 s: "src dst intercept slope" per device pair.
  hb.comm = CommCostModel::Deserialize(
      "0 1 1 0\n0 2 1 0\n1 0 1 0\n1 2 1 0\n2 0 1 0\n2 1 1 0\n");
  const OpId p0 = hb.Add("p0", {1.0, 100.0, 100.0});
  const OpId p1 = hb.Add("p1", {100.0, 1.0, 100.0});
  const OpId c = hb.Add("c", {100.0, 100.0, 1.0});
  hb.g.AddEdge(p0, c, 8);
  hb.g.AddEdge(p1, c, 8);
  const DposResult r = hb.Schedule(Cluster::SingleServer(3));
  EXPECT_EQ(r.strategy.placement[static_cast<size_t>(p0)], 0);
  EXPECT_EQ(r.strategy.placement[static_cast<size_t>(p1)], 1);
  EXPECT_EQ(r.strategy.placement[static_cast<size_t>(c)], 2);
  EXPECT_EQ(r.start_time[static_cast<size_t>(c)], 3.0);
  EXPECT_EQ(r.ft_exit, 4.0);
}

}  // namespace
}  // namespace fastt
