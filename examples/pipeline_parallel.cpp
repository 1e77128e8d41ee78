// The paper's §7 extension implemented: GPipe-style micro-batch pipelining
// on top of a stage cut balanced by profiled time. Naive model parallelism
// keeps only one device busy at a time; splitting the mini-batch into M
// micro-batches lets stage s of micro-batch m overlap stage s-1 of
// micro-batch m+1. Synchronous semantics are preserved (all micro-batch
// gradients aggregate before the single weight update). Each M is profiled
// and cut on its own graph, so M may exceed the GPU count.
//
//   $ ./build/examples/pipeline_parallel [model] [gpus] [batch]
#include <cstdio>
#include <cstdlib>

#include "core/pipeline.h"
#include "core/strategy_calculator.h"
#include "models/model_zoo.h"

using namespace fastt;

int main(int argc, char** argv) {
  const ModelSpec& model = FindModel(argc > 1 ? argv[1] : "bert_large");
  const int gpus = argc > 2 ? std::atoi(argv[2]) : 4;
  const int64_t batch =
      argc > 3 ? std::atoll(argv[3]) : model.strong_batch * 2;
  const Cluster cluster = Cluster::SingleServer(gpus);

  std::printf("%s, global batch %lld, %d GPUs — pipeline parallelism\n\n",
              model.name.c_str(), (long long)batch, gpus);
  std::printf("%-16s %14s %12s %8s\n", "micro-batches", "iteration",
              "samples/s", "OOM");
  for (int m : {1, 2, 4, 8}) {
    if (batch < m) break;
    const PipelineGraph p =
        BuildPipeline(model.build, model.name, batch, m, cluster);
    SimOptions so;
    so.dispatch = DispatchMode::kPriority;  // FastT's order enforcement
    so.priorities = p.priorities;
    const SimResult r = Simulate(p.graph, p.placement, cluster, so);
    std::printf("%-16d %11.3f s %12.1f %8s\n", m, r.makespan,
                p.global_batch / (r.makespan + kSessionOverheadS),
                r.oom ? "yes" : "no");
    std::fflush(stdout);
  }
  std::printf(
      "\nMicro-batching fills the pipeline bubbles of naive model\n"
      "parallelism (the m=1 row): throughput rises with M until the\n"
      "per-micro-batch kernels become too small to amortize stage\n"
      "handoffs.\n");
  return 0;
}
