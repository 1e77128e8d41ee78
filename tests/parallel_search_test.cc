// Differential tests for the parallel strategy search: with any --jobs
// setting, DPOS/OS-DPOS must produce strategies byte-identical (via the
// strategy_io serialization) to the serial jobs=1 reference. The search's
// parallelism is determinism-by-design — per-index result slots plus a
// serial reduction in a fixed order — and these sweeps are the proof.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/data_parallel.h"
#include "core/os_dpos.h"
#include "core/strategy_calculator.h"
#include "core/strategy_io.h"
#include "graph/rewrite.h"
#include "graph/serialize.h"
#include "models/model_zoo.h"
#include "sim/exec_sim.h"
#include "sim/profiler.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

// Restores jobs = 1 (the suite-wide default) even when a test fails.
class JobsGuard {
 public:
  ~JobsGuard() { SetSearchJobs(1); }
};

// Cost models fed from one noisy profiled simulation; the seed varies the
// profile, so each seed exercises the search on a different cost surface.
void SeedCostModels(const Graph& g, const Cluster& cluster, uint64_t seed,
                    CompCostModel* comp, CommCostModel* comm) {
  std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()), 0);
  for (OpId id : g.LiveOps())
    placement[static_cast<size_t>(id)] =
        static_cast<DeviceId>(id % cluster.num_devices());
  SimOptions so;
  so.noise_cv = 0.05;
  so.seed = seed;
  const SimResult sim = Simulate(g, placement, cluster, so);
  const RunProfile profile = ExtractProfile(g, sim);
  comp->AddProfile(profile);
  comm->AddProfile(profile);
}

class ParallelSearchModelSweep : public ::testing::TestWithParam<const char*> {
};

TEST_P(ParallelSearchModelSweep, OsDposIsByteIdenticalAcrossJobs) {
  JobsGuard guard;
  const ModelSpec& spec = FindModel(GetParam());
  const Cluster cluster = Cluster::SingleServer(4);
  const Graph g = BuildSingle(spec, std::min<int64_t>(spec.strong_batch, 16));
  OsDposOptions options;
  options.max_probed_ops = 4;  // differential property is option-independent
  options.max_splits = 2;

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CompCostModel comp;
    CommCostModel comm;
    SeedCostModels(g, cluster, seed, &comp, &comm);

    SetSearchJobs(1);
    const OsDposResult serial = OsDpos(g, cluster, comp, comm, options);
    const std::string reference =
        SerializeStrategy(serial.schedule.strategy);

    for (int jobs : {2, 8}) {
      SetSearchJobs(jobs);
      const OsDposResult parallel = OsDpos(g, cluster, comp, comm, options);
      EXPECT_EQ(SerializeStrategy(parallel.schedule.strategy), reference)
          << spec.name << " seed " << seed << " jobs " << jobs;
      EXPECT_EQ(parallel.probes, serial.probes)
          << spec.name << " seed " << seed << " jobs " << jobs;
      EXPECT_EQ(parallel.schedule.ft_exit, serial.schedule.ft_exit)
          << spec.name << " seed " << seed << " jobs " << jobs;
    }
    SetSearchJobs(1);
  }
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, ParallelSearchModelSweep,
                         ::testing::Values("lenet", "alexnet", "vgg19",
                                           "inception_v3", "resnet200",
                                           "gnmt", "rnnlm", "transformer",
                                           "bert_large"));

TEST(ParallelSearch, WideClusterIsByteIdenticalAcrossJobs) {
  // 16 devices give four split counts, so at --jobs 8 OS-DPOS copies the
  // graph for seven lanes next to lane 0 (which runs on result.graph) and
  // the CP-device scan fans out 16 wide; the 4-device sweeps above use at
  // most four lanes, so this is the differential coverage for the widest
  // lane setup.
  JobsGuard guard;
  const ModelSpec& spec = FindModel("alexnet");
  const Cluster cluster = Cluster::SingleServer(16);
  const Graph g = BuildSingle(spec, 16);
  OsDposOptions options;
  options.max_probed_ops = 4;
  options.max_splits = 2;

  CompCostModel comp;
  CommCostModel comm;
  SeedCostModels(g, cluster, 7, &comp, &comm);

  SetSearchJobs(1);
  const OsDposResult serial = OsDpos(g, cluster, comp, comm, options);
  const std::string reference = SerializeStrategy(serial.schedule.strategy);

  for (int jobs : {2, 8}) {
    SetSearchJobs(jobs);
    const OsDposResult parallel = OsDpos(g, cluster, comp, comm, options);
    EXPECT_EQ(SerializeStrategy(parallel.schedule.strategy), reference)
        << "jobs " << jobs;
    EXPECT_EQ(parallel.schedule.ft_exit, serial.schedule.ft_exit)
        << "jobs " << jobs;
  }
}

TEST(ParallelSearch, CopiesOfOneGraphAreMutatedConcurrently) {
  // Graph copies share the original's storage until they write to it. Each
  // task copies the bert_large 1x8 DP graph, splits ops of its copy under a
  // mark and undoes them, while the other tasks copy, split and free theirs
  // and the original is only read. Every task splits the same op first, so
  // several threads clone the same shared chunk at once. Under CI's TSan
  // job (FASTT_JOBS=8) this runs on 8 threads.
  JobsGuard guard;
  SetSearchJobs(std::max(SearchJobs(), 4));
  const ModelSpec& spec = FindModel("bert_large");
  const Graph g =
      BuildDataParallel(spec.build, spec.name, 16, 8, Scaling::kStrong).graph;
  const std::string before = SerializeGraph(g);
  std::vector<OpId> splittable;
  for (OpId id : g.LiveOps())
    if (CanSplit(g, id, SplitDim::kBatch, 2)) splittable.push_back(id);
  ASSERT_GE(splittable.size(), 64u);

  constexpr size_t kCopies = 8;
  constexpr size_t kRounds = 3;
  std::vector<int> splits(kCopies, 0);
  std::vector<std::string> after(kCopies);
  ParallelFor(kCopies, [&](size_t i) {
    Graph copy = g;
    for (size_t round = 0; round < kRounds; ++round) {
      const OpId op =
          splittable[round == 0 ? 0
                                : (i * splittable.size() / kCopies +
                                   round * 31) % splittable.size()];
      const int live = copy.num_live_ops();
      const size_t mark = copy.Mark();
      SplitOperation(copy, op, SplitDim::kBatch, 2);
      if (copy.op(op).dead && copy.num_live_ops() > live && !g.op(op).dead)
        ++splits[i];
      copy.Undo(mark);
    }
    after[i] = SerializeGraph(copy);
  });
  for (size_t i = 0; i < kCopies; ++i) {
    EXPECT_EQ(splits[i], static_cast<int>(kRounds)) << "copy " << i;
    // Compared as a bool: a mismatch would print two multi-MiB strings.
    EXPECT_TRUE(after[i] == before) << "copy " << i << " differs after Undo";
  }
  EXPECT_TRUE(SerializeGraph(g) == before) << "the original changed";
}

TEST(ParallelSearch, FullWorkflowIsByteIdenticalAcrossJobs) {
  // End-to-end: the whole pre-training workflow (profiling rounds, OS-DPOS,
  // commit/rollback decisions) lands on the same strategy and the same
  // measured iteration time regardless of the jobs setting.
  JobsGuard guard;
  const ModelSpec& spec = FindModel("alexnet");
  const Cluster cluster = Cluster::SingleServer(4);
  CalculatorOptions options;
  options.max_rounds = 3;

  SetSearchJobs(1);
  const CalculatorResult serial = RunFastT(
      spec.build, spec.name, 32, Scaling::kStrong, cluster, options);
  SetSearchJobs(8);
  const CalculatorResult parallel = RunFastT(
      spec.build, spec.name, 32, Scaling::kStrong, cluster, options);

  EXPECT_EQ(SerializeStrategy(parallel.strategy),
            SerializeStrategy(serial.strategy));
  EXPECT_EQ(parallel.iteration_s, serial.iteration_s);
  EXPECT_EQ(parallel.rounds, serial.rounds);
  EXPECT_EQ(parallel.activations, serial.activations);
}

}  // namespace
}  // namespace fastt
