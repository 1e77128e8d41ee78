#include "cost/comp_cost.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/strings.h"

namespace fastt {

void CompCostModel::AddSample(const std::string& cost_key, DeviceId device,
                              double duration_s) {
  entries_[cost_key].by_device[device].Add(duration_s);
  ++version_;
}

void CompCostModel::AddProfile(const RunProfile& profile) {
  for (const OpProfile& p : profile.ops)
    AddSample(p.cost_key, p.device, p.duration_s);
}

const CompCostModel::PerDevice* CompCostModel::Find(
    const std::string& cost_key) const {
  auto it = entries_.find(cost_key);
  return it == entries_.end() ? nullptr : &it->second;
}

std::optional<double> CompCostModel::Lookup(const std::string& cost_key,
                                            DeviceId device) const {
  const PerDevice* per = Find(cost_key);
  if (per == nullptr) return std::nullopt;
  auto it = per->by_device.find(device);
  if (it == per->by_device.end()) return std::nullopt;
  return it->second.mean();
}

double CompCostModel::Estimate(const PerDevice* exact, const PerDevice* basis,
                               double scale, DeviceId device) {
  if (exact != nullptr) {
    auto it = exact->by_device.find(device);
    if (it != exact->by_device.end()) return it->second.mean();
  }
  if (basis != nullptr) {
    auto it = basis->by_device.find(device);
    if (it != basis->by_device.end()) return it->second.mean() * scale;
  }
  return 0.0;  // unknown: explore
}

double CompCostModel::EstimateOrExplore(const Operation& op,
                                        DeviceId device) const {
  const PerDevice* basis =
      op.cost_basis_key.empty() ? nullptr : Find(op.cost_basis_key);
  return Estimate(Find(op.CostKey()), basis, op.cost_scale, device);
}

void CompCostModel::EstimateRow(const Operation& op, int32_t num_devices,
                                double* row) const {
  const PerDevice* exact = Find(op.CostKey());
  const PerDevice* basis =
      op.cost_basis_key.empty() ? nullptr : Find(op.cost_basis_key);
  for (DeviceId d = 0; d < num_devices; ++d)
    row[d] = Estimate(exact, basis, op.cost_scale, d);
}

double CompCostModel::MaxTimeOverDevices(const Operation& op,
                                         int32_t num_devices) const {
  const PerDevice* exact = Find(op.CostKey());
  const PerDevice* basis =
      op.cost_basis_key.empty() ? nullptr : Find(op.cost_basis_key);
  double best = 0.0;
  for (DeviceId d = 0; d < num_devices; ++d)
    best = std::max(best, Estimate(exact, basis, op.cost_scale, d));
  return best;
}

bool CompCostModel::Knows(const std::string& cost_key) const {
  auto it = entries_.find(cost_key);
  return it != entries_.end() && !it->second.by_device.empty();
}

size_t CompCostModel::num_entries() const {
  size_t n = 0;
  // Order-independent integer sum: hash order cannot affect the result.
  for (const auto& [key, per] : entries_) n += per.by_device.size();  // NOLINT(fastt-D1)
  return n;
}

void CompCostModel::Clear() {
  entries_.clear();
  ++version_;
}

std::string CompCostModel::Serialize() const {
  // entries_ and by_device are hash maps; a direct walk would serialize in
  // hash order, making the bytes depend on insertion history and standard
  // library version. Emit a sorted snapshot so the artifact is stable.
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  // Hash-order visit is confined to collecting keys for the sort below.
  for (const auto& [key, per] : entries_) keys.push_back(key);  // NOLINT(fastt-D1)
  std::sort(keys.begin(), keys.end());
  std::string out;
  for (const std::string& key : keys) {
    const PerDevice& per = entries_.at(key);
    std::vector<DeviceId> devices;
    devices.reserve(per.by_device.size());
    for (const auto& [device, mean] : per.by_device)  // NOLINT(fastt-D1)
      devices.push_back(device);
    std::sort(devices.begin(), devices.end());
    for (DeviceId device : devices) {
      const OnlineMean& mean = per.by_device.at(device);
      out += StrFormat("%s\t%d\t%.9e\t%zu\n", key.c_str(), device,
                       mean.mean(), mean.count());
    }
  }
  return out;
}

CompCostModel CompCostModel::Deserialize(const std::string& text) {
  CompCostModel model;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    int device = 0;
    double mean = 0.0;
    size_t count = 0;
    std::getline(ls, key, '\t');
    ls >> device >> mean >> count;
    // Replay the mean `count` times: reconstructs mean exactly (variance is
    // not persisted — acceptable; only means feed the scheduler).
    for (size_t i = 0; i < count; ++i)
      model.AddSample(key, device, mean);
  }
  return model;
}

}  // namespace fastt
