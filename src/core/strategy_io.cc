#include "core/strategy_io.h"

#include <sstream>

#include "util/check.h"

namespace fastt {
namespace {
constexpr int kFormatVersion = 1;
}  // namespace

void SerializeStrategy(const Strategy& strategy, std::ostream& out) {
  out << "fastt_strategy " << kFormatVersion << "\n";
  out << "makespan " << strategy.predicted_makespan << "\n";
  if (strategy.micro_batches != 0)
    out << "micro_batches " << strategy.micro_batches << "\n";
  out << "placement";
  for (DeviceId d : strategy.placement) out << ' ' << d;
  out << "\norder";
  for (OpId id : strategy.execution_order) out << ' ' << id;
  out << "\n";
  for (const SplitDecision& s : strategy.splits) {
    out << "split " << static_cast<int>(s.dim) << ' ' << s.num_splits << ' '
        << s.op_name << "\n";
  }
}

std::string SerializeStrategy(const Strategy& strategy) {
  std::ostringstream out;
  SerializeStrategy(strategy, out);
  return out.str();
}

Strategy DeserializeStrategy(std::istream& in) {
  std::string keyword;
  int version = 0;
  in >> keyword >> version;
  FASTT_CHECK_MSG(keyword == "fastt_strategy", "not a fastt strategy file");
  FASTT_CHECK_MSG(version == kFormatVersion,
                  "unsupported strategy version");
  Strategy strategy;
  std::string line;
  std::getline(in, line);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "makespan") {
      ls >> strategy.predicted_makespan;
    } else if (kind == "micro_batches") {
      ls >> strategy.micro_batches;
      FASTT_CHECK_MSG(ls && strategy.micro_batches > 0,
                      "micro_batches must be a positive count");
    } else if (kind == "placement") {
      DeviceId d;
      while (ls >> d) strategy.placement.push_back(d);
    } else if (kind == "order") {
      OpId id;
      while (ls >> id) strategy.execution_order.push_back(id);
    } else if (kind == "split") {
      SplitDecision s;
      int dim = 0;
      ls >> dim >> s.num_splits;
      s.dim = static_cast<SplitDim>(dim);
      std::getline(ls, s.op_name);
      if (!s.op_name.empty() && s.op_name.front() == ' ')
        s.op_name.erase(0, 1);
      strategy.splits.push_back(std::move(s));
    } else {
      FASTT_CHECK_MSG(false, "unknown strategy record: " + kind);
    }
  }
  return strategy;
}

Strategy DeserializeStrategy(const std::string& text) {
  std::istringstream in(text);
  return DeserializeStrategy(in);
}

}  // namespace fastt
