// Table 4: time to compute the FastT strategy (Alg. 2) per model on 2/4/8
// GPUs. The paper's numbers are dominated by profiled training steps and
// session restarts, so we report the simulated pre-training wall-clock
// (profiling + restarts + algorithm) alongside the wall time spent inside
// DPOS/OS-DPOS alone.
#include "harness.h"

using namespace fastt;
using namespace fastt::bench;

int main() {
  std::printf(
      "Table 4 — strategy computation time (seconds).\n"
      "  'strategy' = simulated pre-training wall-clock "
      "(profiling + restarts + algorithm), the paper's metric;\n"
      "  'algo' = wall-clock seconds inside DPOS/OS-DPOS alone.\n\n");
  TablePrinter table({"Model(batch)", "2GPUs strategy", "2GPUs algo",
                      "4GPUs strategy", "4GPUs algo", "8GPUs strategy",
                      "8GPUs algo"});
  for (const ModelSpec& spec : ModelZoo()) {
    std::vector<std::string> row{StrFormat("%s(%lld)", spec.name.c_str(),
                                           (long long)spec.strong_batch)};
    for (int gpus : {2, 4, 8}) {
      const Cluster cluster = Cluster::SingleServer(gpus);
      CalculatorOptions options;
      const auto ft = RunFastT(spec.build, spec.name, spec.strong_batch,
                               Scaling::kStrong, cluster, options);
      row.push_back(StrFormat("%.1f", ft.strategy_time_s));
      row.push_back(StrFormat("%.3f", ft.algorithm_time_s));
    }
    table.AddRow(std::move(row));
    std::fflush(stdout);
  }
  table.Print();
  std::printf(
      "\nShape checks vs. paper: strategy time grows with device count and\n"
      "with graph size (Transformer/ResNet-200/BERT are the slowest); it\n"
      "stays minutes, not the hours learning-based approaches need.\n");
  return 0;
}
