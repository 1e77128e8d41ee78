#include "cost/cost_table.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace fastt {

CompCostTable::CompCostTable(const Graph& g, const CompCostModel& model,
                             int32_t num_devices)
    : num_devices_(num_devices),
      num_slots_(g.num_slots()),
      model_version_(model.version()) {
  FASTT_TRACE_SPAN("cost/comp_table");
  const size_t slots = static_cast<size_t>(num_slots_);
  const size_t devs = static_cast<size_t>(num_devices_);
  times_.assign(slots * devs, 0.0);
  max_time_.assign(slots, 0.0);
  const int64_t unknown = EstimateRows(g, model, 0);
  CurrentMetrics().AddCounter("cost/comp_table_builds");
  if (unknown > 0) {
    CurrentMetrics().AddCounter("cost/comp_table_unknown_entries",
                                         unknown);
    FASTT_TRACE_INSTANT("cost/comp_table_unknown", unknown);
  }
}

void CompCostTable::Extend(const CompCostTable& base, const Graph& g,
                           const CompCostModel& model, OpId killed) {
  FASTT_TRACE_SPAN("cost/comp_table");
  num_devices_ = base.num_devices_;
  num_slots_ = g.num_slots();
  model_version_ = model.version();
  const size_t slots = static_cast<size_t>(num_slots_);
  const size_t devs = static_cast<size_t>(num_devices_);
  ReserveExact(times_, slots * devs);
  times_.assign(base.times_.begin(), base.times_.end());
  times_.resize(slots * devs, 0.0);
  ReserveExact(max_time_, slots);
  max_time_.assign(base.max_time_.begin(), base.max_time_.end());
  max_time_.resize(slots, 0.0);
  const size_t k = static_cast<size_t>(killed);
  std::fill_n(times_.begin() + static_cast<std::ptrdiff_t>(k * devs), devs,
              0.0);
  max_time_[k] = 0.0;
  EstimateRows(g, model, base.num_slots_);
}

int64_t CompCostTable::EstimateRows(const Graph& g, const CompCostModel& model,
                                    OpId first) {
  const size_t devs = static_cast<size_t>(num_devices_);
  int64_t unknown = 0;  // explore-at-zero entries: no profile, no basis
  for (OpId id = first; id < num_slots_; ++id) {
    const Operation& op = g.op(id);
    if (op.dead) continue;
    double* row = times_.data() + static_cast<size_t>(id) * devs;
    model.EstimateRow(op, num_devices_, row);
    double best = 0.0;
    for (size_t d = 0; d < devs; ++d) {
      if (row[d] == 0.0) ++unknown;
      best = row[d] > best ? row[d] : best;
    }
    max_time_[static_cast<size_t>(id)] = best;
  }
  return unknown;
}

bool CompCostTable::Fresh(const Graph& g, const CompCostModel& model) const {
  return model_version_ == model.version() && num_slots_ == g.num_slots();
}

CommCostTable::CommCostTable(const CommCostModel& model, int32_t num_devices)
    : num_devices_(num_devices), model_version_(model.version()) {
  FASTT_TRACE_SPAN("cost/comm_table");
  pairs_.assign(static_cast<size_t>(num_devices_) *
                    static_cast<size_t>(num_devices_),
                Pair{});
  int64_t unknown = 0;  // pairs with no regression yet (treated as free)
  for (DeviceId src = 0; src < num_devices_; ++src) {
    for (DeviceId dst = 0; dst < num_devices_; ++dst) {
      if (src == dst) continue;
      if (auto fit = model.InterceptSlope(src, dst)) {
        Pair& p = pairs_[static_cast<size_t>(src) *
                             static_cast<size_t>(num_devices_) +
                         static_cast<size_t>(dst)];
        p.intercept = fit->first;
        p.slope = fit->second;
        p.known = true;
        known_pairs_.push_back(p);
      } else {
        ++unknown;
      }
    }
  }
  CurrentMetrics().AddCounter("cost/comm_table_builds");
  if (unknown > 0) {
    CurrentMetrics().AddCounter("cost/comm_table_unknown_pairs",
                                         unknown);
    FASTT_TRACE_INSTANT("cost/comm_table_unknown", unknown);
  }
}

double CommCostTable::MaxOverPairs(int64_t bytes) const {
  double best = 0.0;
  for (const Pair& p : known_pairs_) {
    const double t = p.intercept + p.slope * static_cast<double>(bytes);
    best = t > best ? t : best;
  }
  return best;
}

bool CommCostTable::Fresh(const CommCostModel& model) const {
  return model_version_ == model.version();
}

}  // namespace fastt
