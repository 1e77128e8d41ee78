// Strategy fingerprints: OS-DPOS output pinned bit for bit at the paper's
// cluster sizes, two whole calculator runs (RunFastT) pinned round by
// round, and one annealing search (the arena racer that rewrites its graph
// in place every iteration) pinned the same way.
//
// Each case builds the data-parallel input graph of a zoo model, seeds the
// cost models from one noisy profiled step of the canonical DP placement,
// runs OsDpos and compares two values against goldens:
//   - a 64-bit FNV-1a over the serialized strategy (placement, execution
//     order, split list) followed by the bytes of every scheduled start
//     time;
//   - the bit pattern of FT(o_exit).
// A change to the scheduler's internals that claims to keep its output
// (data layout, indexing, parallelism) must keep both. A change that means
// to move the output replaces the goldens (a failure prints the new values)
// and says why. The goldens assume IEEE-754 doubles without FMA contraction,
// as on the x86-64 builds the suite runs on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "baselines/searchers.h"
#include "core/data_parallel.h"
#include "core/os_dpos.h"
#include "core/strategy_calculator.h"
#include "core/strategy_io.h"
#include "graph/serialize.h"
#include "models/model_zoo.h"
#include "sim/exec_sim.h"
#include "sim/profiler.h"
#include "util/strings.h"

namespace fastt {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

struct FingerprintCase {
  const char* model;
  int servers;
  int gpus_per_server;
  int64_t batch;  // global batch, strong scaling (as the headline benchmark)
  uint64_t strategy_fnv;
  uint64_t ft_exit_bits;
};

void PrintTo(const FingerprintCase& c, std::ostream* os) {
  *os << c.model << " " << c.servers << "x" << c.gpus_per_server;
}

class StrategyFingerprint : public ::testing::TestWithParam<FingerprintCase> {
};

TEST_P(StrategyFingerprint, OsDposOutputMatchesGolden) {
  const FingerprintCase& c = GetParam();
  const ModelSpec& spec = FindModel(c.model);
  const Cluster cluster =
      c.servers == 1 ? Cluster::SingleServer(c.gpus_per_server)
                     : Cluster::MultiServer(c.servers, c.gpus_per_server);
  const DataParallelGraph dp =
      BuildDataParallel(spec.build, spec.name, c.batch, cluster.num_devices(),
                        Scaling::kStrong);

  // Cost models as RunFastT bootstraps them: one profiled step of the
  // canonical DP placement with the calculator's measurement noise.
  SimOptions noisy;
  noisy.dispatch = DispatchMode::kRandom;
  noisy.noise_cv = CalculatorOptions{}.noise_cv;
  noisy.seed = 7;
  const SimResult profiled = Simulate(
      dp.graph, CanonicalDataParallelPlacement(dp), cluster, noisy);
  const RunProfile profile = ExtractProfile(dp.graph, profiled);
  CompCostModel comp;
  CommCostModel comm;
  comp.AddProfile(profile);
  comm.AddProfile(profile);

  OsDposOptions options;
  options.max_probed_ops = 2;  // enough to commit splits, small enough to run
  const OsDposResult result = OsDpos(dp.graph, cluster, comp, comm, options);

  const std::string text = SerializeStrategy(result.schedule.strategy);
  uint64_t fnv = Fnv1a(kFnvOffset, text.data(), text.size());
  const std::vector<double>& start = result.schedule.start_time;
  fnv = Fnv1a(fnv, start.data(), start.size() * sizeof(double));
  const uint64_t ft_bits = Bits(result.schedule.ft_exit);

  EXPECT_EQ(fnv, c.strategy_fnv)
      << StrFormat("new strategy_fnv 0x%016llx",
                   static_cast<unsigned long long>(fnv));
  EXPECT_EQ(ft_bits, c.ft_exit_bits)
      << StrFormat("new ft_exit_bits 0x%016llx (ft_exit %.17g s)",
                   static_cast<unsigned long long>(ft_bits),
                   result.schedule.ft_exit);
}

INSTANTIATE_TEST_SUITE_P(
    PaperClusters, StrategyFingerprint,
    ::testing::Values(
        FingerprintCase{"bert_large", 1, 8, 16, 0x71ec7b542cdefca9ULL,
                        0x3fad5713f0815037ULL},
        FingerprintCase{"gnmt", 1, 8, 128, 0xce26a45f873ccfbfULL,
                        0x3fb4f52e522982daULL},
        FingerprintCase{"vgg19", 2, 8, 64, 0xf585d0666e51110eULL,
                        0x3fb0d6a7ef64e7b3ULL}),
    [](const ::testing::TestParamInfo<FingerprintCase>& info) {
      return StrFormat("%s_%dx%d", info.param.model, info.param.servers,
                       info.param.gpus_per_server);
    });

// The whole calculator workflow at seed 7: every round's OS-DPOS search,
// profiled steps, rollback decision and stability observation. Pinned are
// the FNV-1a of the serialized final strategy, the bits of iteration_s, and
// per round a one-letter decision (c = committed, o = rolled back on OOM,
// r = rolled back slower) plus an FNV-1a over the bits of every
// StabilityStats field, so a change to the stability detector or to any
// round's candidate shows up here.
struct CalculatorCase {
  const char* model;
  int gpus;
  const char* decisions;  // one letter per round
  uint64_t strategy_fnv;
  uint64_t iteration_bits;
  uint64_t stability_fnv;
};

void PrintTo(const CalculatorCase& c, std::ostream* os) {
  *os << c.model << " 1x" << c.gpus;
}

class CalculatorFingerprint
    : public ::testing::TestWithParam<CalculatorCase> {};

TEST_P(CalculatorFingerprint, RunFastTMatchesGolden) {
  const CalculatorCase& c = GetParam();
  const ModelSpec& spec = FindModel(c.model);
  const CalculatorResult ft =
      RunFastT(spec.build, spec.name, spec.strong_batch, Scaling::kStrong,
               Cluster::SingleServer(c.gpus));

  const std::string text = SerializeStrategy(ft.strategy);
  const uint64_t fnv = Fnv1a(kFnvOffset, text.data(), text.size());
  const uint64_t bits = Bits(ft.iteration_s);
  std::string decisions;
  for (const RoundSummary& r : ft.round_history)
    decisions += r.committed ? 'c' : r.oom ? 'o' : 'r';
  ASSERT_EQ(ft.calibration.size(), ft.round_history.size());
  uint64_t stab_fnv = kFnvOffset;
  for (const CalibrationRound& cal : ft.calibration) {
    const StabilityStats& s = cal.stability;
    const int64_t ints[] = {s.entries, s.new_entries ? 1 : 0,
                            s.stable_rounds, s.patience};
    const uint64_t doubles[] = {Bits(s.max_change), Bits(s.mean_change),
                                Bits(s.stddev_change), Bits(s.tolerance),
                                Bits(s.margin)};
    stab_fnv = Fnv1a(stab_fnv, ints, sizeof ints);
    stab_fnv = Fnv1a(stab_fnv, doubles, sizeof doubles);
  }

  EXPECT_EQ(decisions, c.decisions);
  EXPECT_EQ(fnv, c.strategy_fnv)
      << StrFormat("new strategy_fnv 0x%016llx",
                   static_cast<unsigned long long>(fnv));
  EXPECT_EQ(bits, c.iteration_bits)
      << StrFormat("new iteration_bits 0x%016llx (iteration_s %.17g s)",
                   static_cast<unsigned long long>(bits), ft.iteration_s);
  EXPECT_EQ(stab_fnv, c.stability_fnv)
      << StrFormat("new stability_fnv 0x%016llx",
                   static_cast<unsigned long long>(stab_fnv));
}

INSTANTIATE_TEST_SUITE_P(
    Seed7, CalculatorFingerprint,
    ::testing::Values(
        CalculatorCase{"vgg19", 4, "crrcccrr", 0xcad2bb06669cfb93ULL,
                       0x3fc75a09563eadc6ULL, 0x8894b68795652ecfULL},
        CalculatorCase{"inception_v3", 2, "rcrrrrr", 0xad7fbeec84ea5845ULL,
                       0x3fc3d95c9ed59532ULL, 0x6caf57cc3330f14dULL},
        // The pipeline start wins the rounds, no candidate beats it, and
        // its cut at 8 micro-batches beats it after them.
        CalculatorCase{"bert_large", 4, "rrrrrr", 0xf15cb2d9141cc1c4ULL,
                       0x3fbbdf50fd15d91bULL, 0x7a681ee79168ec95ULL}),
    [](const ::testing::TestParamInfo<CalculatorCase>& info) {
      return StrFormat("%s_1x%d", info.param.model, info.param.gpus);
    });

// Annealing keeps one graph and undoes each rejected split in place; its
// placement, split list and objective are pinned like the OS-DPOS cases:
// FNV-1a over the serialized placement + splits, and the bits of
// iteration_s. The returned graph is pinned too (FNV-1a of SerializeGraph).
TEST(AnnealingFingerprint, Alexnet1x2MatchesGolden) {
  const ModelSpec& spec = FindModel("alexnet");
  const Cluster cluster = Cluster::SingleServer(2);
  SearchOptions options;
  options.budget = 200;
  const SearchResult sa =
      AnnealingSearch(spec.build, spec.name, 64, cluster, options);

  Strategy strategy;
  strategy.placement = sa.placement;
  strategy.splits = sa.splits;
  const std::string text = SerializeStrategy(strategy);
  const uint64_t fnv = Fnv1a(kFnvOffset, text.data(), text.size());
  const uint64_t bits = Bits(sa.iteration_s);
  const std::string graph_text = SerializeGraph(sa.graph);
  const uint64_t graph_fnv =
      Fnv1a(kFnvOffset, graph_text.data(), graph_text.size());
  EXPECT_EQ(fnv, 0x2b89d1bb36abda90ULL) << StrFormat("new strategy_fnv 0x%016llx",
                                      static_cast<unsigned long long>(fnv));
  EXPECT_EQ(bits, 0x3f9c1dc19153bd56ULL)
      << StrFormat("new iteration_bits 0x%016llx (iteration_s %.17g s)",
                   static_cast<unsigned long long>(bits), sa.iteration_s);
  EXPECT_EQ(graph_fnv, 0xb77a637fdb78d2afULL)
      << StrFormat("new graph_fnv 0x%016llx",
                   static_cast<unsigned long long>(graph_fnv));
}

}  // namespace
}  // namespace fastt
