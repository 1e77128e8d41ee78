// Strategy fingerprints: OS-DPOS output pinned bit for bit at the paper's
// cluster sizes.
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

#include "core/data_parallel.h"
#include "core/os_dpos.h"
#include "core/strategy_calculator.h"
#include "core/strategy_io.h"
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
        FingerprintCase{"gnmt", 1, 8, 128, 0x8c51ac635578042eULL,
                        0x3fb4f52e522982deULL},
        FingerprintCase{"vgg19", 2, 8, 64, 0xae5b3fa7e5b4eeb1ULL,
                        0x3fb0d6a7ef64e7bcULL}),
    [](const ::testing::TestParamInfo<FingerprintCase>& info) {
      return StrFormat("%s_%dx%d", info.param.model, info.param.servers,
                       info.param.gpus_per_server);
    });

}  // namespace
}  // namespace fastt
