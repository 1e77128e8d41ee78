// TelemetryContext: request-scoped telemetry isolation. The contract under
// test is the tentpole of the observability layer — two contexts running
// interleaved searches on different threads must each collect exactly the
// telemetry a serial run would, the thread pool must propagate the
// submitter's ambient bindings to its workers, and nested scopes must
// restore.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>

#include "core/os_dpos.h"
#include "core/strategy_io.h"
#include "models/model_zoo.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
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

TEST(TelemetryContextTest, ScopeRoutesMetricsEventsAndRestores) {
  MetricsRegistry& process = MetricsRegistry::Global();
  const auto process_before = process.TakeSnapshot().counters;

  TelemetryContext context;
  {
    TelemetryScope scope(context);
    ASSERT_EQ(&CurrentTelemetry(), &context);
    CurrentMetrics().AddCounter("ctx/hits", 2);
    CurrentEventLog().Emit("ping").Int("n", 1);
  }
  // Scope exited: ambient resolution is back to the process context.
  EXPECT_TRUE(CurrentTelemetry().is_process());
  EXPECT_EQ(&CurrentMetrics(), &process);

  const auto counters = context.metrics().TakeSnapshot().counters;
  EXPECT_EQ(counters.at("ctx/hits"), 2);
  EXPECT_EQ(context.events().size(), 1u);
  // Nothing leaked into the process registry.
  EXPECT_EQ(process.TakeSnapshot().counters, process_before);
}

TEST(TelemetryContextTest, NestedScopesNeverCrossContaminate) {
  TelemetryContext outer;
  TelemetryContext inner;
  {
    TelemetryScope outer_scope(outer);
    CurrentMetrics().AddCounter("depth/outer");
    {
      TelemetryScope inner_scope(inner);
      ASSERT_EQ(&CurrentTelemetry(), &inner);
      CurrentMetrics().AddCounter("depth/inner");
      CurrentEventLog().Emit("inner");
    }
    // Innermost scope gone: back to the outer context, not the process.
    ASSERT_EQ(&CurrentTelemetry(), &outer);
    CurrentMetrics().AddCounter("depth/outer");
    CurrentEventLog().Emit("outer");
  }
  const auto outer_counters = outer.metrics().TakeSnapshot().counters;
  const auto inner_counters = inner.metrics().TakeSnapshot().counters;
  EXPECT_EQ(outer_counters.at("depth/outer"), 2);
  EXPECT_EQ(outer_counters.count("depth/inner"), 0u);
  EXPECT_EQ(inner_counters.at("depth/inner"), 1);
  EXPECT_EQ(inner_counters.count("depth/outer"), 0u);
  EXPECT_EQ(outer.events().size(), 1u);
  EXPECT_EQ(inner.events().size(), 1u);
}

TEST(TelemetryContextTest, ParallelForPropagatesAmbientBindings) {
  JobsGuard guard;
  SetSearchJobs(4);
  const auto process_before =
      MetricsRegistry::Global().TakeSnapshot().counters;

  TelemetryContext context;
  {
    TelemetryScope scope(context);
    ParallelFor(64, [&](size_t) {
      // Workers resolve the submitter's context, not the process one.
      CurrentMetrics().AddCounter("pool/chunk");
    });
  }
  EXPECT_EQ(context.metrics().TakeSnapshot().counters.at("pool/chunk"), 64);
  EXPECT_EQ(MetricsRegistry::Global().TakeSnapshot().counters,
            process_before);

  // Outside any scope the same fan-out lands in the process registry.
  ParallelFor(8, [&](size_t) { CurrentMetrics().AddCounter("pool/global"); });
  EXPECT_EQ(MetricsRegistry::Global().TakeSnapshot().counters.at(
                "pool/global"),
            8);
  MetricsRegistry::Global().Reset();
}

TEST(TelemetryContextTest, ContextTracerIsIsolatedFromGlobal) {
  TelemetryContext context;
  context.tracer().Enable();
  {
    TelemetryScope scope(context);
    FASTT_TRACE_SPAN("ctx/span");
  }
  context.tracer().Disable();
  const TraceDump dump = context.tracer().Drain();
  ASSERT_EQ(dump.spans.size(), 1u);
  EXPECT_STREQ(dump.spans[0].name, "ctx/span");
  // The process tracer saw nothing (it was never enabled; draining it
  // would also steal other tests' state, so just check the fast flag).
  EXPECT_FALSE(Tracer::Global().enabled());
}

// The per-context outcome of one instrumented OS-DPOS search: counters,
// the full JSONL event stream, and the committed strategy.
struct SearchOutcome {
  std::map<std::string, int64_t> counters;
  std::string events;
  std::string strategy;
};

SearchOutcome RunInstrumentedSearch(const Graph& g, const Cluster& cluster,
                                    const CompCostModel& comp,
                                    const CommCostModel& comm, int tag) {
  TelemetryContext context;
  SearchOutcome out;
  {
    TelemetryScope scope(context);
    CurrentEventLog().Emit("search_begin").Int("tag", tag);
    OsDposOptions options;
    options.max_probed_ops = 3;
    options.max_splits = 2;
    const OsDposResult result = OsDpos(g, cluster, comp, comm, options);
    CurrentEventLog()
        .Emit("search_end")
        .Int("tag", tag)
        .Int("probes", result.probes);
    out.strategy = SerializeStrategy(result.schedule.strategy);
  }
  out.counters = context.metrics().TakeSnapshot().counters;
  out.events = context.events().ToJsonl();
  return out;
}

// Cost models fed from one noisy profiled simulation (same recipe as the
// parallel-search differential tests).
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

// The acceptance-critical property: two contexts running interleaved
// searches on different threads — sharing the process-wide search pool —
// collect byte-identical counters and event streams to the same searches
// run serially. Timers and histograms carry wall-clock and are excluded;
// everything deterministic must match exactly.
TEST(TelemetryContextTest, InterleavedSearchesMatchSerialByteForByte) {
  JobsGuard guard;
  const Cluster cluster = Cluster::SingleServer(4);
  const Graph g1 = BuildSingle(FindModel("lenet"), 16);
  const Graph g2 = BuildSingle(FindModel("alexnet"), 16);
  CompCostModel comp1, comp2;
  CommCostModel comm1, comm2;
  SeedCostModels(g1, cluster, 1, &comp1, &comm1);
  SeedCostModels(g2, cluster, 2, &comp2, &comm2);

  SetSearchJobs(2);  // both searches fan out onto the shared pool
  const SearchOutcome serial1 =
      RunInstrumentedSearch(g1, cluster, comp1, comm1, 1);
  const SearchOutcome serial2 =
      RunInstrumentedSearch(g2, cluster, comp2, comm2, 2);
  ASSERT_FALSE(serial1.counters.empty());
  ASSERT_FALSE(serial2.counters.empty());

  SearchOutcome racing1, racing2;
  std::thread t1([&] {
    racing1 = RunInstrumentedSearch(g1, cluster, comp1, comm1, 1);
  });
  std::thread t2([&] {
    racing2 = RunInstrumentedSearch(g2, cluster, comp2, comm2, 2);
  });
  t1.join();
  t2.join();

  EXPECT_EQ(racing1.counters, serial1.counters);
  EXPECT_EQ(racing2.counters, serial2.counters);
  EXPECT_EQ(racing1.events, serial1.events);
  EXPECT_EQ(racing2.events, serial2.events);
  EXPECT_EQ(racing1.strategy, serial1.strategy);
  EXPECT_EQ(racing2.strategy, serial2.strategy);
  // And the two contexts saw different work, so identical outcomes are not
  // vacuous.
  EXPECT_NE(serial1.counters, serial2.counters);
}

}  // namespace
}  // namespace fastt
