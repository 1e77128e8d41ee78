#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/comm_cost.h"
#include "cost/comp_cost.h"
#include "cost/cost_table.h"
#include "cost/linreg.h"
#include "cost/stability.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "util/stats.h"

namespace fastt {
namespace {

TEST(LinearRegression, RecoversExactLine) {
  LinearRegression lr;
  for (double x : {1.0, 2.0, 5.0, 9.0}) lr.Add(x, 3.0 + 2.0 * x);
  EXPECT_NEAR(lr.intercept(), 3.0, 1e-9);
  EXPECT_NEAR(lr.slope(), 2.0, 1e-9);
  EXPECT_NEAR(lr.Predict(10.0), 23.0, 1e-9);
}

TEST(LinearRegression, SinglePointIsConstant) {
  LinearRegression lr;
  lr.Add(4.0, 7.0);
  EXPECT_DOUBLE_EQ(lr.slope(), 0.0);
  EXPECT_DOUBLE_EQ(lr.Predict(100.0), 7.0);
}

TEST(LinearRegression, IdenticalXFallsBackToMean) {
  LinearRegression lr;
  lr.Add(5.0, 10.0);
  lr.Add(5.0, 20.0);
  EXPECT_DOUBLE_EQ(lr.slope(), 0.0);
  EXPECT_NEAR(lr.Predict(5.0), 15.0, 1e-9);
}

TEST(LinearRegression, EmptyPredictsZero) {
  LinearRegression lr;
  EXPECT_DOUBLE_EQ(lr.Predict(42.0), 0.0);
}

TEST(CompCost, LookupAveragesSamples) {
  CompCostModel m;
  m.AddSample("conv1", 0, 0.010);
  m.AddSample("conv1", 0, 0.020);
  ASSERT_TRUE(m.Lookup("conv1", 0).has_value());
  EXPECT_NEAR(*m.Lookup("conv1", 0), 0.015, 1e-12);
  EXPECT_FALSE(m.Lookup("conv1", 1).has_value());
  EXPECT_FALSE(m.Lookup("conv2", 0).has_value());
}

TEST(CompCost, ExplorationPricesUnknownAtZero) {
  CompCostModel m;
  Operation op;
  op.name = "mystery";
  EXPECT_DOUBLE_EQ(m.EstimateOrExplore(op, 0), 0.0);
}

TEST(CompCost, BasisFallbackScales) {
  CompCostModel m;
  m.AddSample("conv1", 2, 0.010);
  Operation sub;
  sub.name = "conv1/part0";
  sub.cost_key = "conv1#batch/2";
  sub.cost_basis_key = "conv1";
  sub.cost_scale = 0.5;
  EXPECT_NEAR(m.EstimateOrExplore(sub, 2), 0.005, 1e-12);
  // Exact profile takes precedence over the basis once it exists.
  m.AddSample("conv1#batch/2", 2, 0.008);
  EXPECT_NEAR(m.EstimateOrExplore(sub, 2), 0.008, 1e-12);
}

TEST(CompCost, EstimateRowKeepsTheEstimationOrder) {
  // Device 0: exact profile and basis (exact wins); 1: basis only (scaled);
  // 2: nothing (explore at 0).
  CompCostModel m;
  m.AddSample("conv1#batch/2", 0, 0.008);
  m.AddSample("conv1", 0, 0.010);
  m.AddSample("conv1", 1, 0.012);
  Operation sub;
  sub.name = "conv1/part0";
  sub.cost_key = "conv1#batch/2";
  sub.cost_basis_key = "conv1";
  sub.cost_scale = 0.5;
  double row[3] = {-1.0, -1.0, -1.0};
  m.EstimateRow(sub, 3, row);
  EXPECT_EQ(row[0], m.EstimateOrExplore(sub, 0));
  EXPECT_EQ(row[1], m.EstimateOrExplore(sub, 1));
  EXPECT_EQ(row[2], m.EstimateOrExplore(sub, 2));
  EXPECT_NEAR(row[0], 0.008, 1e-12);
  EXPECT_NEAR(row[1], 0.006, 1e-12);
  EXPECT_EQ(row[2], 0.0);
}

TEST(CompCost, MaxTimeOverDevices) {
  CompCostModel m;
  m.AddSample("op", 0, 0.003);
  m.AddSample("op", 2, 0.007);
  Operation op;
  op.name = "op";
  EXPECT_NEAR(m.MaxTimeOverDevices(op, 4), 0.007, 1e-12);
}

TEST(CompCost, SerializeRoundTrip) {
  CompCostModel m;
  m.AddSample("a", 0, 0.001);
  m.AddSample("a", 0, 0.003);
  m.AddSample("b", 1, 0.5);
  const CompCostModel copy = CompCostModel::Deserialize(m.Serialize());
  EXPECT_NEAR(*copy.Lookup("a", 0), 0.002, 1e-9);
  EXPECT_NEAR(*copy.Lookup("b", 1), 0.5, 1e-9);
  EXPECT_EQ(copy.num_entries(), 2u);
}

TEST(CompCost, KnowsAndClear) {
  CompCostModel m;
  EXPECT_FALSE(m.Knows("x"));
  m.AddSample("x", 0, 1.0);
  EXPECT_TRUE(m.Knows("x"));
  m.Clear();
  EXPECT_FALSE(m.Knows("x"));
}

TEST(CommCost, SameDeviceIsFree) {
  CommCostModel m;
  EXPECT_DOUBLE_EQ(m.Estimate(1, 1, 1 << 20), 0.0);
}

TEST(CommCost, UnknownPairExplores) {
  CommCostModel m;
  EXPECT_DOUBLE_EQ(m.Estimate(0, 1, 1 << 20), 0.0);
  EXPECT_FALSE(m.KnowsPair(0, 1));
}

TEST(CommCost, RecoversLatencyAndBandwidth) {
  CommCostModel m;
  // Ground truth: 10 us latency + bytes / 10 GB/s.
  auto truth = [](int64_t bytes) { return 1e-5 + bytes / 10e9; };
  for (int64_t bytes : {int64_t{1} << 20, int64_t{1} << 26})
    m.AddSample(0, 1, bytes, truth(bytes));
  ASSERT_TRUE(m.KnowsPair(0, 1));
  const auto [intercept, slope] = *m.InterceptSlope(0, 1);
  EXPECT_NEAR(intercept, 1e-5, 1e-7);
  EXPECT_NEAR(1.0 / slope, 10e9, 1e7);
  EXPECT_NEAR(m.Estimate(0, 1, 100 << 20), truth(100 << 20), 1e-4);
}

TEST(CommCost, PairsAreIndependentAndDirectional) {
  CommCostModel m;
  m.AddSample(0, 1, 1000, 1.0);
  EXPECT_GT(m.Estimate(0, 1, 1000), 0.0);
  EXPECT_DOUBLE_EQ(m.Estimate(1, 0, 1000), 0.0);
}

TEST(CommCost, MaxOverPairs) {
  CommCostModel m;
  m.AddSample(0, 1, 1 << 20, 0.001);
  m.AddSample(0, 1, 1 << 22, 0.004);
  m.AddSample(2, 3, 1 << 20, 0.010);
  m.AddSample(2, 3, 1 << 22, 0.040);
  EXPECT_NEAR(m.MaxOverPairs(1 << 22), 0.040, 1e-6);
}

TEST(CommCost, NegativePredictionsClampToZero) {
  CommCostModel m;
  // Descending samples produce a negative slope; estimates must stay >= 0.
  m.AddSample(0, 1, 100, 1.0);
  m.AddSample(0, 1, 200, 0.1);
  EXPECT_GE(m.Estimate(0, 1, 100000), 0.0);
}

TEST(CommCost, SerializeRoundTrip) {
  CommCostModel m;
  m.AddSample(0, 1, 1 << 20, 1e-5 + (1 << 20) / 9e9);
  m.AddSample(0, 1, 1 << 26, 1e-5 + (1 << 26) / 9e9);
  m.AddSample(2, 0, 1 << 20, 5e-5 + (1 << 20) / 3e9);
  m.AddSample(2, 0, 1 << 24, 5e-5 + (1 << 24) / 3e9);
  const CommCostModel copy = CommCostModel::Deserialize(m.Serialize());
  EXPECT_EQ(copy.num_pairs(), 2u);
  for (int64_t bytes : {int64_t{1} << 21, int64_t{1} << 25}) {
    EXPECT_NEAR(copy.Estimate(0, 1, bytes), m.Estimate(0, 1, bytes), 1e-9);
    EXPECT_NEAR(copy.Estimate(2, 0, bytes), m.Estimate(2, 0, bytes), 1e-9);
  }
  EXPECT_FALSE(copy.KnowsPair(1, 0));
}

TEST(Stability, StableAfterRepeatedObservations) {
  CompCostModel m;
  m.AddSample("op", 0, 0.010);
  StabilityDetector detector(0.05, 2);
  EXPECT_FALSE(detector.IsStable());
  detector.Observe(m, 1, {"op"});  // first observation: new entries
  EXPECT_FALSE(detector.IsStable());
  m.AddSample("op", 0, 0.0101);
  detector.Observe(m, 1, {"op"});
  m.AddSample("op", 0, 0.0099);
  detector.Observe(m, 1, {"op"});
  EXPECT_TRUE(detector.IsStable());
}

TEST(Stability, NewKeyResetsStability) {
  CompCostModel m;
  m.AddSample("op", 0, 0.010);
  StabilityDetector detector(0.05, 1);
  detector.Observe(m, 1, {"op"});
  detector.Observe(m, 1, {"op"});
  EXPECT_TRUE(detector.IsStable());
  m.AddSample("new_op", 0, 1.0);
  detector.Observe(m, 1, {"op", "new_op"});
  EXPECT_FALSE(detector.IsStable());
}

TEST(Stability, LargeChangeResetsCounter) {
  CompCostModel m;
  m.AddSample("op", 0, 0.010);
  StabilityDetector detector(0.05, 1);
  detector.Observe(m, 1, {"op"});
  // Shift the mean by >5%.
  for (int i = 0; i < 10; ++i) m.AddSample("op", 0, 0.030);
  const double change = detector.Observe(m, 1, {"op"});
  EXPECT_GT(change, 0.05);
  EXPECT_FALSE(detector.IsStable());
}

TEST(Stability, WindowStatisticsExposed) {
  CompCostModel m;
  m.AddSample("a", 0, 0.010);
  m.AddSample("b", 0, 0.020);
  StabilityDetector detector(0.05, 2);
  EXPECT_DOUBLE_EQ(detector.tolerance(), 0.05);
  EXPECT_EQ(detector.patience(), 2);

  // Before any observation the stats are the defaults.
  EXPECT_TRUE(detector.last_stats().new_entries);
  EXPECT_TRUE(std::isinf(detector.last_stats().max_change));

  // First observation: everything is new, the clock is reset.
  detector.Observe(m, 1, {"a", "b"});
  const StabilityStats first = detector.last_stats();
  EXPECT_TRUE(first.new_entries);
  EXPECT_EQ(first.entries, 0);
  EXPECT_TRUE(std::isinf(first.max_change));
  EXPECT_TRUE(std::isinf(first.margin));
  EXPECT_LT(first.margin, 0.0);
  EXPECT_EQ(first.stable_rounds, 0);

  // "a" mean moves 0.010 -> 0.0105 (+5%), "b" stays: max 0.05, mean 0.025.
  m.AddSample("a", 0, 0.011);
  detector.Observe(m, 1, {"a", "b"});
  const StabilityStats second = detector.last_stats();
  EXPECT_FALSE(second.new_entries);
  EXPECT_EQ(second.entries, 2);
  EXPECT_NEAR(second.max_change, 0.05, 1e-12);
  EXPECT_NEAR(second.mean_change, 0.025, 1e-12);
  EXPECT_NEAR(second.stddev_change, 0.05 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(second.margin, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(second.tolerance, 0.05);
  EXPECT_EQ(second.stable_rounds, 1);
  EXPECT_FALSE(detector.IsStable());

  // No further movement: stable after `patience` quiet rounds.
  detector.Observe(m, 1, {"a", "b"});
  const StabilityStats third = detector.last_stats();
  EXPECT_DOUBLE_EQ(third.max_change, 0.0);
  EXPECT_NEAR(third.margin, 0.05, 1e-12);
  EXPECT_EQ(third.stable_rounds, 2);
  EXPECT_TRUE(detector.IsStable());
}

// The walk StabilityDetector::Observe made before it kept one snapshot per
// cost key: every listed (key, device) pair formatted as "key@d" and looked
// up on its own. The per-key snapshot must reproduce it bit for bit.
class StringKeyedStability {
 public:
  StringKeyedStability(double tolerance, int patience)
      : tolerance_(tolerance), patience_(patience) {}

  double Observe(const CompCostModel& model, int32_t num_devices,
                 const std::vector<std::string>& keys) {
    bool new_entry = false;
    std::vector<double> changes;
    std::unordered_map<std::string, double> current;
    for (const std::string& key : keys) {
      for (DeviceId d = 0; d < num_devices; ++d) {
        auto value = model.Lookup(key, d);
        if (!value) continue;
        const std::string entry = key + "@" + std::to_string(d);
        current[entry] = *value;
        auto it = last_.find(entry);
        if (it == last_.end()) {
          new_entry = true;
        } else if (it->second > 0.0) {
          changes.push_back(std::fabs(*value - it->second) / it->second);
        }
      }
    }
    last_ = std::move(current);

    StabilityStats stats;
    stats.entries = static_cast<int>(changes.size());
    stats.mean_change = Mean(changes);
    stats.stddev_change = Stddev(changes);
    stats.tolerance = tolerance_;
    stats.patience = patience_;
    stats.new_entries = new_entry;
    if (new_entry) {
      stable_rounds_ = 0;
      stats.max_change = std::numeric_limits<double>::infinity();
      stats.margin = -std::numeric_limits<double>::infinity();
    } else {
      stats.max_change = changes.empty() ? 0.0 : Max(changes);
      stats.margin = tolerance_ - stats.max_change;
      stable_rounds_ = stats.max_change <= tolerance_ ? stable_rounds_ + 1 : 0;
    }
    stats.stable_rounds = stable_rounds_;
    last_stats_ = stats;
    return stats.max_change;
  }

  bool IsStable() const { return stable_rounds_ >= patience_; }
  const StabilityStats& last_stats() const { return last_stats_; }

 private:
  double tolerance_;
  int patience_;
  int stable_rounds_ = 0;
  StabilityStats last_stats_;
  std::unordered_map<std::string, double> last_;
};

uint64_t DoubleBits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

TEST(Stability, PerKeySnapshotMatchesStringKeyedWalkBitForBit) {
  // Key "z" only ever sees 0 s samples (a zero mean); the others drift by
  // small relative steps with an occasional jump, on a random subset of
  // devices, so some (key, device) pairs never get a sample.
  const std::vector<std::string> pool = {"a", "b", "c", "d", "e", "z"};
  int stable_rounds_seen = 0, new_entry_rounds = 0, compared_rounds = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    CompCostModel model;
    const double tolerance = 0.02 + 0.04 * rng.NextDouble();
    const int patience = 1 + static_cast<int>(rng.NextBelow(3));
    StabilityDetector detector(tolerance, patience);
    StringKeyedStability reference(tolerance, patience);
    for (int round = 0; round < 14; ++round) {
      const int32_t devices = 2 + static_cast<int32_t>(rng.NextBelow(3));
      for (const std::string& key : pool) {
        for (DeviceId d = 0; d < 4; ++d) {
          if (!rng.NextBool(key == "e" ? 0.1 : 0.4)) continue;
          const double base = 0.001 * static_cast<double>(d + 1);
          const double sample =
              key == "z"            ? 0.0
              : rng.NextBool(0.1)   ? base * rng.NextDouble(2.0, 4.0)
                                    : base * rng.NextDouble(0.99, 1.01);
          model.AddSample(key, d, sample);
        }
      }
      // A random listing: keys drop out and come back, and repeat.
      std::vector<std::string> keys;
      const size_t listed = rng.NextBelow(10);
      for (size_t i = 0; i < listed; ++i)
        keys.push_back(pool[rng.NextBelow(pool.size())]);
      if (rng.NextBool(0.5)) keys = {"a", "b", "a", "z"};

      const double got = rng.NextBool(0.5)
                             ? detector.Observe(model, devices, keys)
                             : detector.Observe(model, devices,
                                                StabilityKeys(keys));
      const double want = reference.Observe(model, devices, keys);
      const StabilityStats& a = detector.last_stats();
      const StabilityStats& b = reference.last_stats();
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " round "
                                        << round);
      EXPECT_EQ(DoubleBits(got), DoubleBits(want));
      EXPECT_EQ(a.entries, b.entries);
      EXPECT_EQ(DoubleBits(a.max_change), DoubleBits(b.max_change));
      EXPECT_EQ(DoubleBits(a.mean_change), DoubleBits(b.mean_change));
      EXPECT_EQ(DoubleBits(a.stddev_change), DoubleBits(b.stddev_change));
      EXPECT_EQ(DoubleBits(a.tolerance), DoubleBits(b.tolerance));
      EXPECT_EQ(DoubleBits(a.margin), DoubleBits(b.margin));
      EXPECT_EQ(a.new_entries, b.new_entries);
      EXPECT_EQ(a.stable_rounds, b.stable_rounds);
      EXPECT_EQ(a.patience, b.patience);
      EXPECT_EQ(detector.IsStable(), reference.IsStable());
      ++compared_rounds;
      if (b.stable_rounds > 0) ++stable_rounds_seen;
      if (b.new_entries) ++new_entry_rounds;
    }
  }
  // The sweep reaches both outcomes of the rule.
  EXPECT_EQ(compared_rounds, 40 * 14);
  EXPECT_GT(stable_rounds_seen, 20);
  EXPECT_GT(new_entry_rounds, 20);
}

TEST(LinearRegression, RSquaredPerfectAndNoisy) {
  LinearRegression exact;
  for (double x : {1.0, 2.0, 5.0, 9.0}) exact.Add(x, 3.0 + 2.0 * x);
  EXPECT_NEAR(exact.r_squared(), 1.0, 1e-12);

  LinearRegression noisy;
  noisy.Add(1.0, 5.1);
  noisy.Add(2.0, 6.8);
  noisy.Add(3.0, 9.3);
  noisy.Add(4.0, 10.6);
  EXPECT_GT(noisy.r_squared(), 0.9);
  EXPECT_LT(noisy.r_squared(), 1.0);

  // Degenerate cases: <2 points and constant y are "perfectly explained";
  // constant x with varying y explains nothing.
  LinearRegression empty;
  EXPECT_DOUBLE_EQ(empty.r_squared(), 1.0);
  LinearRegression constant_y;
  constant_y.Add(1.0, 4.0);
  constant_y.Add(2.0, 4.0);
  EXPECT_DOUBLE_EQ(constant_y.r_squared(), 1.0);
  LinearRegression constant_x;
  constant_x.Add(5.0, 1.0);
  constant_x.Add(5.0, 9.0);
  EXPECT_DOUBLE_EQ(constant_x.r_squared(), 0.0);
}

TEST(CommCost, FitExposesRegressionDiagnostics) {
  CommCostModel m;
  EXPECT_FALSE(m.Fit(0, 1).has_value());
  EXPECT_TRUE(m.KnownPairs().empty());
  // Exact line: 10 us latency + 1 GB/s.
  for (int64_t bytes : {int64_t{1} << 20, int64_t{1} << 24, int64_t{1} << 26})
    m.AddSample(0, 1, bytes, 1e-5 + static_cast<double>(bytes) / 1e9);
  const auto fit = m.Fit(0, 1);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->intercept, 1e-5, 1e-9);
  EXPECT_NEAR(fit->slope, 1e-9, 1e-15);
  EXPECT_NEAR(fit->r2, 1.0, 1e-9);
  EXPECT_EQ(fit->samples, 3u);
  const auto pairs = m.KnownPairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, 0);
  EXPECT_EQ(pairs[0].second, 1);
}

// A tiny graph whose ops have distinct cost keys.
Graph CostTableGraph() {
  Graph g;
  for (int i = 0; i < 3; ++i) {
    Operation op;
    op.name = "t" + std::to_string(i);
    op.type = i == 0 ? OpType::kMatMul : OpType::kRelu;
    op.output_shape = TensorShape{8 << i};
    op.flops = 1e6 * (i + 1);
    g.AddOp(std::move(op));
  }
  return g;
}

TEST(CompCostTable, MatchesTheModelItSnapshotted) {
  const Graph g = CostTableGraph();
  CompCostModel comp;
  comp.AddSample(g.op(0).CostKey(), 0, 0.002);
  comp.AddSample(g.op(0).CostKey(), 1, 0.004);
  comp.AddSample(g.op(1).CostKey(), 1, 0.001);
  const CompCostTable table(g, comp, 2);
  for (OpId id : g.LiveOps()) {
    for (DeviceId d = 0; d < 2; ++d)
      EXPECT_EQ(table.Time(id, d), comp.EstimateOrExplore(g.op(id), d))
          << "op " << id << " dev " << d;
    EXPECT_EQ(table.MaxOverDevices(id),
              comp.MaxTimeOverDevices(g.op(id), 2));
  }
  EXPECT_TRUE(table.Fresh(g, comp));
}

TEST(CompCostTable, GoesStaleWhenTheModelLearns) {
  const Graph g = CostTableGraph();
  CompCostModel comp;
  const CompCostTable table(g, comp, 2);
  EXPECT_TRUE(table.Fresh(g, comp));
  comp.AddSample(g.op(0).CostKey(), 0, 0.003);
  EXPECT_FALSE(table.Fresh(g, comp));
  // A rebuilt snapshot is fresh again and reflects the new sample.
  const CompCostTable rebuilt(g, comp, 2);
  EXPECT_TRUE(rebuilt.Fresh(g, comp));
  EXPECT_EQ(rebuilt.Time(0, 0), comp.EstimateOrExplore(g.op(0), 0));
}

TEST(CompCostTable, GoesStaleWhenTheGraphGrows) {
  Graph g = CostTableGraph();
  CompCostModel comp;
  const CompCostTable table(g, comp, 2);
  Operation op;
  op.name = "extra";
  op.type = OpType::kRelu;
  op.output_shape = TensorShape{4};
  g.AddOp(std::move(op));
  EXPECT_FALSE(table.Fresh(g, comp));
}

TEST(CommCostTable, MatchesTheModelItSnapshotted) {
  CommCostModel comm;
  for (int64_t bytes : {1 << 10, 1 << 16, 1 << 20})
    comm.AddSample(0, 1, bytes, 1e-5 + 1e-9 * static_cast<double>(bytes));
  comm.AddSample(1, 0, 1 << 16, 3e-4);
  const CommCostTable table(comm, 2);
  for (int64_t bytes : {0L, 1L << 12, 1L << 20}) {
    for (DeviceId s = 0; s < 2; ++s)
      for (DeviceId d = 0; d < 2; ++d)
        EXPECT_EQ(table.Estimate(s, d, bytes), comm.Estimate(s, d, bytes));
    EXPECT_EQ(table.MaxOverPairs(bytes), comm.MaxOverPairs(bytes));
  }
  EXPECT_TRUE(table.Fresh(comm));
  comm.AddSample(0, 1, 1 << 8, 2e-5);
  EXPECT_FALSE(table.Fresh(comm));
}

TEST(CommCostTable, UnknownPairsExplore) {
  CommCostModel comm;
  const CommCostTable table(comm, 3);
  EXPECT_EQ(table.Estimate(0, 2, 1 << 20), 0.0);
  EXPECT_EQ(table.Estimate(1, 1, 1 << 20), 0.0);
}

}  // namespace
}  // namespace fastt
