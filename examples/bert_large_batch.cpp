// Training a model that does NOT fit on a single GPU (the paper's Table 3
// scenario): BERT-large at growing global batch sizes. Data parallelism can
// only scale the batch as far as one replica fits; FastT falls back to a
// model-parallel bootstrap and finds placements that train batch sizes DP
// cannot touch — no manual placement required.
//
//   $ ./build/examples/bert_large_batch
#include <cstdio>

#include "core/strategy_calculator.h"
#include "models/model_zoo.h"

using namespace fastt;

int main() {
  const ModelSpec& model = FindModel("bert_large");
  const Cluster one = Cluster::SingleServer(1);
  const Cluster two = Cluster::SingleServer(2);
  std::printf("BERT-large (seq len 64) on 16 GB GPUs\n\n");
  std::printf("%-14s %12s %12s %14s %s\n", "global batch", "1 GPU",
              "2 GPUs DP", "2 GPUs FastT", "FastT bootstrap");

  for (int64_t batch : {int64_t{16}, int64_t{32}, int64_t{40}, int64_t{48}}) {
    CalculatorOptions options;
    const auto single = RunDataParallelBaseline(
        model.build, model.name, batch, Scaling::kStrong, one, options);
    const auto dp = RunDataParallelBaseline(model.build, model.name, batch,
                                            Scaling::kStrong, two, options);
    const auto ft = RunFastT(model.build, model.name, batch,
                             Scaling::kStrong, two, options);
    auto show = [](bool oom, double iteration_s) {
      static char buffer[32];
      if (oom) return "OOM";
      std::snprintf(buffer, sizeof(buffer), "%.3f s", iteration_s);
      return static_cast<const char*>(buffer);
    };
    std::printf("%-14lld %12s", (long long)batch,
                show(single.final_sim.oom, single.iteration_s));
    std::printf(" %12s", show(dp.final_sim.oom, dp.iteration_s));
    std::printf(" %14s", show(ft.final_sim.oom, ft.iteration_s));
    std::printf("  %s\n", ft.start_strategy.c_str());
    std::fflush(stdout);
  }
  std::printf(
      "\nBeyond batch 32 a full replica no longer fits in one GPU, so data\n"
      "parallelism OOMs; FastT bootstraps from a layer-wise model-parallel\n"
      "cut and trains batches 40 and 48 (paper Table 3).\n");
  return 0;
}
