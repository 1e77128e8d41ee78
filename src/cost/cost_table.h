// Dense, read-mostly snapshots of the adaptive cost models.
//
// The cost models are keyed by strings (computation) and map lookups
// (communication) — fine for incremental updates from profiles, but the
// search interrogates them millions of times: every DPOS queue pop scores
// every candidate device, and OS-DPOS reschedules whole trial graphs per
// split probe. A table is built once per scheduler invocation (one string
// lookup per op key and one map lookup per device pair), after which
// every query is an array read; an OS-DPOS split trial extends its probe's
// table instead, estimating only the slots the split appended. Tables are
// not modified once built, so the parallel search reads them from many
// threads without synchronization, and each carries the model version it
// was built from so stale snapshots are detectable after a profiling round
// feeds the models.
#pragma once

#include <cstdint>
#include <vector>

#include "cost/comm_cost.h"
#include "cost/comp_cost.h"
#include "graph/graph.h"
#include "util/memtrack.h"

namespace fastt {

// EstimateOrExplore for every (op slot, device) of one graph.
class CompCostTable {
 public:
  CompCostTable() = default;
  CompCostTable(const Graph& g, const CompCostModel& model,
                int32_t num_devices);

  // EstimateOrExplore(g.op(op), device), as an array read.
  double Time(OpId op, DeviceId device) const {
    return times_[static_cast<size_t>(op) * static_cast<size_t>(num_devices_) +
                  static_cast<size_t>(device)];
  }
  // MaxTimeOverDevices — the w_i term in rank_u.
  double MaxOverDevices(OpId op) const {
    return max_time_[static_cast<size_t>(op)];
  }

  // Re-snapshots for `g`, the graph `base` was built for after a rewrite
  // that killed op `killed` and appended slots, leaving every other op as
  // it was (what SplitOperation does): copies base's rows, zeroes the
  // killed op's, and estimates only the appended slots. Equal to
  // CompCostTable(g, model, base.num_devices()); reuses this table's
  // storage.
  void Extend(const CompCostTable& base, const Graph& g,
              const CompCostModel& model, OpId killed);

  int32_t num_devices() const { return num_devices_; }
  int32_t num_slots() const { return num_slots_; }
  // Version of the computation model this snapshot was built from.
  uint64_t model_version() const { return model_version_; }
  // True iff the snapshot still reflects `model` for a graph of this shape.
  bool Fresh(const Graph& g, const CompCostModel& model) const;

 private:
  // Estimates the rows of live slots [first, num_slots_); returns how many
  // entries priced as unknown (0).
  int64_t EstimateRows(const Graph& g, const CompCostModel& model,
                       OpId first);

  int32_t num_devices_ = 0;
  int32_t num_slots_ = 0;
  uint64_t model_version_ = 0;
  // Snapshot storage is charged to MemTag::kCost wherever it is built.
  TaggedVector<double> times_{
      TaggedAlloc<double>(MemTag::kCost)};  // num_slots × num_devices
  TaggedVector<double> max_time_{TaggedAlloc<double>(MemTag::kCost)};
};

// Fitted (intercept, slope) for every ordered device pair.
class CommCostTable {
 public:
  CommCostTable() = default;
  CommCostTable(const CommCostModel& model, int32_t num_devices);

  // CommCostModel::Estimate, as arithmetic on snapshotted parameters.
  double Estimate(DeviceId src, DeviceId dst, int64_t bytes) const {
    if (src == dst) return 0.0;
    const Pair& p = pairs_[static_cast<size_t>(src) *
                               static_cast<size_t>(num_devices_) +
                           static_cast<size_t>(dst)];
    if (!p.known) return 0.0;  // unknown pair: explore
    const double t = p.intercept + p.slope * static_cast<double>(bytes);
    return t > 0.0 ? t : 0.0;
  }
  // CommCostModel::MaxOverPairs — the c_{i,j} term in rank_u.
  double MaxOverPairs(int64_t bytes) const;

  int32_t num_devices() const { return num_devices_; }
  uint64_t model_version() const { return model_version_; }
  bool Fresh(const CommCostModel& model) const;

 private:
  struct Pair {
    double intercept = 0.0;
    double slope = 0.0;
    bool known = false;
  };
  int32_t num_devices_ = 0;
  uint64_t model_version_ = 0;
  TaggedVector<Pair> pairs_{
      TaggedAlloc<Pair>(MemTag::kCost)};  // num_devices × num_devices
  // Dense list for MaxOverPairs.
  TaggedVector<Pair> known_pairs_{TaggedAlloc<Pair>(MemTag::kCost)};
};

}  // namespace fastt
