#include "cost/stability.h"

#include <cmath>
#include <limits>
#include <vector>

#include "util/stats.h"

namespace fastt {

StabilityKeys::StabilityKeys(const std::vector<std::string>& keys) {
  std::unordered_map<std::string, int32_t> index;
  occurrences_.reserve(keys.size());
  for (const std::string& key : keys) {
    auto [it, inserted] =
        index.emplace(key, static_cast<int32_t>(distinct_.size()));
    if (inserted) distinct_.push_back(key);
    occurrences_.push_back(it->second);
  }
}

double StabilityDetector::Observe(const CompCostModel& model,
                                  int32_t num_devices,
                                  const StabilityKeys& keys) {
  ++round_;
  const size_t devs = static_cast<size_t>(num_devices);
  bool new_entry = false;
  // Each distinct key's relative changes in device order, flat, ending at
  // key_end[k]; then pushed once per listing, in listing order — the same
  // sequence a walk over every listed (key, device) pair produces.
  std::vector<double> key_changes;
  std::vector<size_t> key_end(keys.distinct().size());
  for (size_t k = 0; k < keys.distinct().size(); ++k) {
    const std::string& key = keys.distinct()[k];
    KeySnapshot& snap = last_[key];
    const bool listed_last_round = snap.round + 1 == round_;
    snap.round = round_;
    snap.mean.resize(devs, 0.0);
    snap.known.resize(devs, 0);
    for (size_t d = 0; d < devs; ++d) {
      const auto value = model.Lookup(key, static_cast<DeviceId>(d));
      if (value) {
        const double old = snap.mean[d];
        if (!listed_last_round || !snap.known[d]) {
          new_entry = true;
        } else if (old > 0.0) {
          key_changes.push_back(std::fabs(*value - old) / old);
        }
      }
      snap.known[d] = value ? 1 : 0;
      snap.mean[d] = value.value_or(0.0);
    }
    key_end[k] = key_changes.size();
  }
  std::vector<double> changes;
  for (int32_t k : keys.occurrences()) {
    const size_t begin = k == 0 ? 0 : key_end[static_cast<size_t>(k) - 1];
    changes.insert(changes.end(),
                   key_changes.begin() + static_cast<std::ptrdiff_t>(begin),
                   key_changes.begin() +
                       static_cast<std::ptrdiff_t>(
                           key_end[static_cast<size_t>(k)]));
  }

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
    if (stats.max_change <= tolerance_) {
      ++stable_rounds_;
    } else {
      stable_rounds_ = 0;
    }
  }
  stats.stable_rounds = stable_rounds_;
  last_stats_ = stats;
  return stats.max_change;
}

}  // namespace fastt
