#include <gtest/gtest.h>

#include <algorithm>

#include "core/dpos.h"
#include "core/rank.h"
#include "core/timeline.h"
#include "util/rng.h"
#include "util/strings.h"

namespace fastt {
namespace {

TEST(Timeline, AppendsAfterLastInterval) {
  DeviceTimeline t;
  EXPECT_DOUBLE_EQ(t.EarliestSlot(0.0, 1.0), 0.0);
  t.Commit(0.0, 1.0, 0);
  EXPECT_DOUBLE_EQ(t.EarliestSlot(0.0, 1.0), 1.0);
  t.Commit(1.0, 1.0, 1);
  EXPECT_DOUBLE_EQ(t.LastEnd(), 2.0);
  EXPECT_DOUBLE_EQ(t.BusyTime(), 2.0);
}

TEST(Timeline, InsertsIntoGap) {
  DeviceTimeline t;
  t.Commit(0.0, 1.0, 0);
  t.Commit(5.0, 1.0, 1);
  // A 2s op fits in the [1, 5] gap.
  EXPECT_DOUBLE_EQ(t.EarliestSlot(0.5, 2.0), 1.0);
  t.Commit(1.0, 2.0, 2);
  // The remaining gap is [3, 5]; a 3s op must go after everything.
  EXPECT_DOUBLE_EQ(t.EarliestSlot(0.0, 3.0), 6.0);
}

TEST(Timeline, RespectsReadyTime) {
  DeviceTimeline t;
  t.Commit(0.0, 1.0, 0);
  EXPECT_DOUBLE_EQ(t.EarliestSlot(10.0, 1.0), 10.0);
}

TEST(Timeline, ZeroDurationOpsShareTimestamps) {
  DeviceTimeline t;
  t.Commit(0.0, 1.0, 0);
  const double slot = t.EarliestSlot(0.5, 0.0);
  EXPECT_DOUBLE_EQ(slot, 1.0);
  EXPECT_NO_THROW(t.Commit(slot, 0.0, 1));
  EXPECT_NO_THROW(t.Commit(slot, 0.0, 2));  // stacking zero-width is fine
  EXPECT_NO_THROW(t.Commit(1.0, 2.0, 3));   // real op at the same start
}

TEST(Timeline, OverlapRejected) {
  DeviceTimeline t;
  t.Commit(0.0, 2.0, 0);
  EXPECT_THROW(t.Commit(1.0, 1.0, 1), std::logic_error);
  EXPECT_THROW(t.Commit(-0.5, 1.0, 2), std::logic_error);
}

TEST(Timeline, PropertyRandomCommitsNeverOverlap) {
  Rng rng(99);
  DeviceTimeline t;
  struct Iv {
    double s, e;
  };
  std::vector<Iv> committed;
  for (int i = 0; i < 200; ++i) {
    const double ready = rng.NextDouble(0.0, 50.0);
    const double dur = rng.NextDouble(0.0, 3.0);
    const double start = t.EarliestSlot(ready, dur);
    EXPECT_GE(start, ready);
    ASSERT_NO_THROW(t.Commit(start, dur, i));
    for (const Iv& iv : committed) {
      const bool overlap = start < iv.e - 1e-9 && iv.s < start + dur - 1e-9;
      EXPECT_FALSE(overlap) << "interval " << i;
    }
    if (dur > 0) committed.push_back({start, start + dur});
  }
}

// ---- DeviceTimeline vs. the linear-scan reference ---------------------------

// The timeline before it was chunked, kept as the reference: one vector of
// intervals sorted by (start, end), a search for the first interval that
// ends after the ready time, then a linear walk one interval at a time. The
// search here is a scan; while the ends are sorted it lands where the old
// binary search did, which the reference checks.
class LinearTimeline {
 public:
  static constexpr double kEps = 1e-12;

  double EarliestSlot(double ready, double duration) const {
    double cursor = ready;
    auto it = std::find_if(ivs_.begin(), ivs_.end(),
                           [&](const Iv& iv) { return cursor < iv.end; });
    if (ends_sorted_) {
      EXPECT_EQ(it, std::upper_bound(
                        ivs_.begin(), ivs_.end(), cursor,
                        [](double t, const Iv& iv) { return t < iv.end; }));
    }
    for (; it != ivs_.end(); ++it) {
      if (it->start - cursor >= duration - kEps) return cursor;
      cursor = std::max(cursor, it->end);
    }
    return cursor;
  }

  // Commit's overlap verdict: "previous" or "next" when the nearest
  // positive-width neighbour on that side overlaps by more than kEps, ""
  // when the interval may be committed.
  std::string Conflict(double start, double duration) const {
    if (duration <= 0.0) return "";
    const Iv iv{start, start + duration};
    const size_t at = Position(iv);
    for (size_t k = at; k-- > 0;) {
      if (ivs_[k].end - ivs_[k].start <= 0.0) continue;
      if (ivs_[k].end > iv.start + kEps) return "previous";
      break;
    }
    for (size_t k = at; k < ivs_.size(); ++k) {
      if (ivs_[k].end - ivs_[k].start <= 0.0) continue;
      if (iv.end > ivs_[k].start + kEps) return "next";
      break;
    }
    return "";
  }

  // Whether committing keeps the ends sorted in (start, end) order. A
  // zero-width interval placed less than kEps after the start of a longer
  // one nests inside it and does not.
  bool KeepsEndsSorted(double start, double duration) const {
    const Iv iv{start, start + duration};
    const size_t at = Position(iv);
    return (at == 0 || ivs_[at - 1].end <= iv.end) &&
           (at == ivs_.size() || iv.end <= ivs_[at].end);
  }

  void Commit(double start, double duration) {
    ends_sorted_ = ends_sorted_ && KeepsEndsSorted(start, duration);
    const Iv iv{start, start + duration};
    ivs_.insert(ivs_.begin() + static_cast<std::ptrdiff_t>(Position(iv)), iv);
  }

  size_t size() const { return ivs_.size(); }
  // Boundaries to aim queries at: the start or the end of interval i.
  double start(size_t i) const { return ivs_[i].start; }
  double end(size_t i) const { return ivs_[i].end; }

 private:
  struct Iv {
    double start, end;
  };
  size_t Position(const Iv& iv) const {
    return static_cast<size_t>(
        std::lower_bound(ivs_.begin(), ivs_.end(), iv,
                         [](const Iv& a, const Iv& b) {
                           if (a.start != b.start) return a.start < b.start;
                           return a.end < b.end;
                         }) -
        ivs_.begin());
  }
  std::vector<Iv> ivs_;
  bool ends_sorted_ = true;
};

// Commits `duration` at `start` on both timelines when the reference accepts
// it, and checks that the indexed one rejects exactly what the reference
// rejects, naming the same side.
void CommitBoth(DeviceTimeline& t, LinearTimeline& ref, double start,
                double duration, OpId op) {
  const std::string conflict = ref.Conflict(start, duration);
  if (conflict.empty()) {
    ASSERT_NO_THROW(t.Commit(start, duration, op)) << "at " << start;
    ref.Commit(start, duration);
    return;
  }
  try {
    t.Commit(start, duration, op);
    FAIL() << "overlap with the " << conflict << " interval accepted at "
           << start;
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(conflict), std::string::npos)
        << e.what();
  }
}

// Thousands of random commits, split into many chunks, with the query
// answer checked against the reference before every one. Queries aim at
// random times, at exact interval boundaries (coincident starts) and within
// a few kEps of them; durations are zero, short, an existing gap give or
// take kEps, or too long for any gap. With keep_ends_sorted, commits that
// would nest an interval inside another are left out, so the sweep stays on
// the binary-search path DPOS takes; without it, the first such commit moves
// the timeline to its scan path.
void RandomSweep(uint64_t seed, bool keep_ends_sorted) {
  constexpr double kEps = LinearTimeline::kEps;
  Rng rng(seed);
  DeviceTimeline t;
  LinearTimeline ref;
  OpId op = 0;
  int zero_width = 0, past_end = 0, nested = 0;
  while (ref.size() < 6000) {
    const size_t n = ref.size();
    const size_t pick = n == 0 ? 0 : rng.NextBelow(n);
    const double horizon = n == 0 ? 1.0 : ref.end(n - 1) + 1.0;
    double ready = rng.NextDouble(0.0, horizon);
    double duration = rng.NextDouble(0.0, 2.0);
    if (n > 0) {
      switch (rng.NextBelow(4)) {
        case 0: ready = ref.start(pick); break;
        case 1: ready = ref.end(pick); break;
        case 2:
          ready = (rng.NextBool(0.5) ? ref.start(pick) : ref.end(pick)) +
                  rng.NextDouble(-3.0, 3.0) * kEps;
          break;
        default: break;
      }
      switch (rng.NextBelow(5)) {
        case 0: duration = 0.0; break;
        case 1:  // the gap in front of interval pick, give or take kEps
          if (pick > 0)
            duration = std::max(0.0, ref.start(pick) - ref.end(pick - 1) +
                                         rng.NextDouble(-2.0, 2.0) * kEps);
          break;
        case 2: duration = 1e6; break;  // fits no gap
        default: break;
      }
    }
    const double slot = t.EarliestSlot(ready, duration);
    ASSERT_EQ(slot, ref.EarliestSlot(ready, duration))
        << "ready " << ready << " duration " << duration << " with " << n
        << " intervals";
    if (duration >= 1e6) {
      EXPECT_GE(slot, ref.end(n - 1) - kEps);
      ++past_end;
      continue;
    }
    if (!ref.KeepsEndsSorted(slot, duration)) {
      ++nested;
      if (keep_ends_sorted) continue;
    }
    if (duration == 0.0) ++zero_width;
    CommitBoth(t, ref, slot, duration, op++);
  }
  EXPECT_EQ(t.num_intervals(), ref.size());
  EXPECT_GT(zero_width, 500);
  EXPECT_GT(past_end, 500);
  EXPECT_GT(nested, 0);  // the generator does reach nesting commits
}

TEST(Timeline, IndexedMatchesLinearScanReference) {
  RandomSweep(2024, /*keep_ends_sorted=*/true);
}

TEST(Timeline, IndexedMatchesLinearScanReferenceAfterNesting) {
  RandomSweep(2025, /*keep_ends_sorted=*/false);
}

TEST(Timeline, FindsTheOnlyGapWhereverItSits) {
  // 400 unit intervals back to back with one 0.5 gap, in front of interval
  // k, for every k: wherever the chunk boundaries fall, some k puts the gap
  // in front of a chunk's first interval, where no chunk's bound covers it.
  for (int k = 1; k < 400; ++k) {
    DeviceTimeline t;
    for (int i = 0; i < 400; ++i)
      t.Commit(i < k ? i : i + 0.5, 1.0, i);
    const double gap = k;  // the gap is [k, k + 0.5]
    ASSERT_EQ(t.EarliestSlot(0.0, 0.5), gap) << "k " << k;
    ASSERT_EQ(t.EarliestSlot(gap, 0.5), gap) << "k " << k;
    ASSERT_EQ(t.EarliestSlot(gap - 0.5, 0.5), gap) << "k " << k;
    ASSERT_EQ(t.EarliestSlot(0.0, 0.6), 400.5) << "k " << k;
  }
}

TEST(Timeline, OverlapChecksLookAcrossChunks) {
  // Unit intervals [3i, 3i+1], each with a zero-width interval 0.1 before
  // and after it, so every nearest positive-width neighbour sits behind a
  // zero-width one. Probing an overlap at every interval puts the
  // conflicting neighbour on the far side of many chunk boundaries.
  DeviceTimeline t;
  LinearTimeline ref;
  OpId op = 0;
  for (int i = 0; i < 400; ++i) {
    const double s = 3.0 * i;
    CommitBoth(t, ref, s - 0.1, 0.0, op++);
    CommitBoth(t, ref, s, 1.0, op++);
    CommitBoth(t, ref, s + 1.1, 0.0, op++);
  }
  for (int i = 1; i < 400; ++i) {
    const double s = 3.0 * i;
    ASSERT_EQ(ref.Conflict(s - 0.5, 1.0), "next");
    CommitBoth(t, ref, s - 0.5, 1.0, op++);  // runs into interval i
    ASSERT_EQ(ref.Conflict(s + 0.5, 1.0), "previous");
    CommitBoth(t, ref, s + 0.5, 1.0, op++);  // starts inside interval i
    // Neighbours within kEps are not overlaps.
    CommitBoth(t, ref, s - 1.0 + 0.5 * LinearTimeline::kEps,
               1.0 - LinearTimeline::kEps, op++);
  }
  EXPECT_EQ(t.num_intervals(), ref.size());
  for (double ready : {0.0, 1.05, 299.0, 700.5, 1500.0})
    for (double duration : {0.0, 0.05, 0.9, 1.0, 5.0})
      EXPECT_EQ(t.EarliestSlot(ready, duration),
                ref.EarliestSlot(ready, duration));
}

// ---- rank_u -----------------------------------------------------------------

Operation NamedOp(const std::string& name, TensorShape shape = TensorShape{4}) {
  Operation op;
  op.name = name;
  op.cost_key = name;
  op.type = OpType::kMatMul;
  op.output_shape = std::move(shape);
  return op;
}

TEST(Rank, MatchesHandComputation) {
  // a -> b -> c, w = {3, 2, 1} on one device, edge cost 10 per hop.
  Graph g;
  const OpId a = g.AddOp(NamedOp("a"));
  const OpId b = g.AddOp(NamedOp("b"));
  const OpId c = g.AddOp(NamedOp("c"));
  g.AddEdge(a, b, 100);
  g.AddEdge(b, c, 100);
  CompCostModel comp;
  comp.AddSample("a", 0, 3.0);
  comp.AddSample("b", 0, 2.0);
  comp.AddSample("c", 0, 1.0);
  CommCostModel comm;
  comm.AddSample(0, 1, 0, 10.0);
  comm.AddSample(0, 1, 100, 10.0);  // constant 10 regardless of size

  const auto rank = ComputeRankU(g, comp, comm, 2);
  EXPECT_DOUBLE_EQ(rank[static_cast<size_t>(c)], 1.0);
  EXPECT_DOUBLE_EQ(rank[static_cast<size_t>(b)], 2.0 + 10.0 + 1.0);
  EXPECT_DOUBLE_EQ(rank[static_cast<size_t>(a)], 3.0 + 10.0 + 13.0);
}

TEST(Rank, UsesMaxOverDevices) {
  Graph g;
  const OpId a = g.AddOp(NamedOp("a"));
  CompCostModel comp;
  comp.AddSample("a", 0, 1.0);
  comp.AddSample("a", 1, 9.0);  // slower device dominates w_i
  CommCostModel comm;
  const auto rank = ComputeRankU(g, comp, comm, 2);
  EXPECT_DOUBLE_EQ(rank[static_cast<size_t>(a)], 9.0);
}

TEST(Rank, CriticalPathFollowsLargestRank) {
  // diamond: a -> {heavy, light} -> exit; CP must route through heavy.
  Graph g;
  const OpId a = g.AddOp(NamedOp("a"));
  const OpId heavy = g.AddOp(NamedOp("heavy"));
  const OpId light = g.AddOp(NamedOp("light"));
  const OpId exit_op = g.AddOp(NamedOp("exit"));
  g.AddEdge(a, heavy, 0);
  g.AddEdge(a, light, 0);
  g.AddEdge(heavy, exit_op, 0);
  g.AddEdge(light, exit_op, 0);
  CompCostModel comp;
  comp.AddSample("a", 0, 1.0);
  comp.AddSample("heavy", 0, 50.0);
  comp.AddSample("light", 0, 1.0);
  comp.AddSample("exit", 0, 1.0);
  CommCostModel comm;
  const auto rank = ComputeRankU(g, comp, comm, 1);
  const auto cp = CriticalPathByRank(g, rank);
  EXPECT_EQ(std::vector<OpId>(cp.begin(), cp.end()),
            (std::vector<OpId>{a, heavy, exit_op}));
}

// ---- DPOS --------------------------------------------------------------------

struct CostedChain {
  Graph g;
  CompCostModel comp;
  CommCostModel comm;
  std::vector<OpId> ops;

  // `n` ops in a chain, each costing `w` seconds on every device.
  CostedChain(int n, double w, int devices, int64_t edge_bytes = 64) {
    OpId prev = kInvalidOp;
    for (int i = 0; i < n; ++i) {
      const OpId id = g.AddOp(NamedOp("op" + std::to_string(i)));
      for (DeviceId d = 0; d < devices; ++d)
        comp.AddSample("op" + std::to_string(i), d, w);
      if (prev != kInvalidOp) g.AddEdge(prev, id, edge_bytes);
      ops.push_back(id);
      prev = id;
    }
    for (DeviceId i = 0; i < devices; ++i)
      for (DeviceId j = 0; j < devices; ++j)
        if (i != j) {
          comm.AddSample(i, j, 0, 1e-5);
          comm.AddSample(i, j, 1 << 20, 1e-5 + 1e-4);
        }
  }
};

TEST(Dpos, PlacesEveryOp) {
  CostedChain chain(10, 0.001, 2);
  const Cluster c = Cluster::SingleServer(2);
  const DposResult r = Dpos(chain.g, c, chain.comp, chain.comm);
  for (OpId id : chain.g.LiveOps())
    EXPECT_NE(r.strategy.placement[static_cast<size_t>(id)], kInvalidDevice);
  EXPECT_EQ(r.strategy.execution_order.size(),
            static_cast<size_t>(chain.g.num_live_ops()));
}

TEST(Dpos, ChainStaysOnOneDeviceWhenCommCostly) {
  CostedChain chain(8, 0.001, 2);
  const Cluster c = Cluster::SingleServer(2);
  const DposResult r = Dpos(chain.g, c, chain.comp, chain.comm);
  const DeviceId first =
      r.strategy.placement[static_cast<size_t>(chain.ops[0])];
  for (OpId id : chain.ops)
    EXPECT_EQ(r.strategy.placement[static_cast<size_t>(id)], first);
  // Chain of 8 x 1ms = 8 ms end to end.
  EXPECT_NEAR(r.ft_exit, 0.008, 1e-6);
}

TEST(Dpos, IndependentBranchesUseBothDevices) {
  Graph g;
  CompCostModel comp;
  CommCostModel comm;
  // Two independent chains of 4 ops.
  for (int b = 0; b < 2; ++b) {
    OpId prev = kInvalidOp;
    for (int i = 0; i < 4; ++i) {
      const std::string name = StrFormat("b%d_%d", b, i);
      const OpId id = g.AddOp(NamedOp(name));
      comp.AddSample(name, 0, 0.001);
      comp.AddSample(name, 1, 0.001);
      if (prev != kInvalidOp) g.AddEdge(prev, id, 64);
      prev = id;
    }
  }
  comm.AddSample(0, 1, 0, 1e-5);
  comm.AddSample(0, 1, 1 << 20, 1e-4);
  comm.AddSample(1, 0, 0, 1e-5);
  comm.AddSample(1, 0, 1 << 20, 1e-4);
  const DposResult r = Dpos(g, Cluster::SingleServer(2), comp, comm);
  // Both chains in parallel: makespan ~4 ms, not 8 ms.
  EXPECT_LT(r.ft_exit, 0.0055);
}

TEST(Dpos, HonorsColocation) {
  CostedChain chain(4, 0.001, 2);
  Operation apply;
  apply.name = "apply";
  apply.type = OpType::kApplyGradient;
  apply.output_shape = TensorShape{0};
  apply.colocate_with = chain.ops[1];
  const OpId apply_id = chain.g.AddOp(std::move(apply));
  chain.g.AddEdge(chain.ops.back(), apply_id, 64);
  const DposResult r = Dpos(chain.g, Cluster::SingleServer(2), chain.comp,
                            chain.comm);
  EXPECT_EQ(r.strategy.placement[static_cast<size_t>(apply_id)],
            r.strategy.placement[static_cast<size_t>(chain.ops[1])]);
}

TEST(Dpos, MemoryInfeasibleDeviceAvoided) {
  CostedChain chain(2, 0.001, 2);
  // A huge op that only fits on one device once another big op sits there.
  Operation big;
  big.name = "big";
  big.cost_key = "big";
  big.type = OpType::kMatMul;
  big.output_shape = TensorShape{4};
  big.param_bytes = int64_t{6} * 1024 * 1024 * 1024;
  const OpId big_id = chain.g.AddOp(std::move(big));
  Operation big2;
  big2.name = "big2";
  big2.cost_key = "big2";
  big2.type = OpType::kMatMul;
  big2.output_shape = TensorShape{4};
  big2.param_bytes = int64_t{6} * 1024 * 1024 * 1024;
  const OpId big2_id = chain.g.AddOp(std::move(big2));
  for (DeviceId d = 0; d < 2; ++d) {
    chain.comp.AddSample("big", d, 0.001);
    chain.comp.AddSample("big2", d, 0.001);
  }
  const Cluster c = Cluster::SingleServer(2);
  const DposResult r = Dpos(chain.g, c, chain.comp, chain.comm);
  // 6 GB + 6 GB exceeds one device's planned budget: they must separate.
  EXPECT_NE(r.strategy.placement[static_cast<size_t>(big_id)],
            r.strategy.placement[static_cast<size_t>(big2_id)]);
  EXPECT_FALSE(r.memory_overflow);
}

TEST(Dpos, ExecutionOrderSortedByStartTime) {
  CostedChain chain(10, 0.001, 2);
  const DposResult r = Dpos(chain.g, Cluster::SingleServer(2), chain.comp,
                            chain.comm);
  for (size_t i = 1; i < r.strategy.execution_order.size(); ++i) {
    const OpId prev = r.strategy.execution_order[i - 1];
    const OpId cur = r.strategy.execution_order[i];
    EXPECT_LE(r.start_time[static_cast<size_t>(prev)],
              r.start_time[static_cast<size_t>(cur)]);
  }
}

TEST(Dpos, RealizedCriticalPathEndsAtLatestOp) {
  CostedChain chain(6, 0.002, 2);
  const DposResult r = Dpos(chain.g, Cluster::SingleServer(2), chain.comp,
                            chain.comm);
  const auto cp = RealizedCriticalPath(chain.g, r, chain.comm);
  ASSERT_FALSE(cp.empty());
  EXPECT_EQ(cp.back(), chain.ops.back());
  EXPECT_EQ(cp.front(), chain.ops.front());
}

TEST(Dpos, SingleDeviceDegenerates) {
  CostedChain chain(5, 0.001, 1);
  const DposResult r = Dpos(chain.g, Cluster::SingleServer(1), chain.comp,
                            chain.comm);
  EXPECT_NEAR(r.ft_exit, 0.005, 1e-9);
}

// Theorem 1 property check: ω_DPOS <= 2·ω_opt + C_max, with ω_opt lower-
// bounded by max(total_work / |D|, longest compute chain) and C_max the
// maximal total transmission time along any chain.
class DposBoundSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DposBoundSweep, RespectsTheoremOneBound) {
  Rng rng(GetParam());
  const int n_ops = 20 + static_cast<int>(rng.NextBelow(60));
  const int n_dev = 2 + static_cast<int>(rng.NextBelow(3));
  Graph g;
  CompCostModel comp;
  CommCostModel comm;
  std::vector<OpId> ids;
  for (int i = 0; i < n_ops; ++i) {
    const std::string name = "op" + std::to_string(i);
    const OpId id = g.AddOp(NamedOp(name));
    const double w = rng.NextDouble(1e-4, 5e-3);
    for (DeviceId d = 0; d < n_dev; ++d) comp.AddSample(name, d, w);
    // Random edges from up to 2 earlier ops.
    for (int k = 0; k < 2; ++k) {
      if (!ids.empty() && rng.NextBool(0.7)) {
        const OpId src = ids[rng.NextBelow(ids.size())];
        g.AddEdge(src, id, static_cast<int64_t>(rng.NextBelow(1 << 22)));
      }
    }
    ids.push_back(id);
  }
  for (DeviceId i = 0; i < n_dev; ++i)
    for (DeviceId j = 0; j < n_dev; ++j)
      if (i != j) {
        comm.AddSample(i, j, 0, 1e-5);
        comm.AddSample(i, j, 1 << 22, 1e-5 + (1 << 22) / 9e9);
      }

  const Cluster c = Cluster::SingleServer(n_dev);
  const DposResult r = Dpos(g, c, comp, comm);

  double total_work = 0.0;
  for (OpId id : g.LiveOps())
    total_work += comp.EstimateOrExplore(g.op(id), 0);
  const auto compute_chain = g.LongestPathFromExit(
      [&](const Operation& op) { return comp.EstimateOrExplore(op, 0); },
      [](const Edge&) { return 0.0; });
  const auto comm_chain = g.LongestPathFromExit(
      [](const Operation&) { return 0.0; },
      [&](const Edge& e) { return comm.MaxOverPairs(e.bytes); });
  double lb = total_work / n_dev, cmax = 0.0;
  for (OpId id : g.LiveOps()) {
    lb = std::max(lb, compute_chain[static_cast<size_t>(id)]);
    cmax = std::max(cmax, comm_chain[static_cast<size_t>(id)]);
  }
  EXPECT_LE(r.ft_exit, 2.0 * lb + cmax + 1e-9)
      << "ops=" << n_ops << " devices=" << n_dev;
}

INSTANTIATE_TEST_SUITE_P(RandomDags, DposBoundSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

}  // namespace
}  // namespace fastt
