// bench_search — wall-clock of the strategy search engine itself (not the
// simulated training it optimizes): OS-DPOS end-to-end at --jobs 1 vs
// --jobs N on one model, verifying the parallel run produces a byte-identical
// strategy, plus the search's allocation counts and the searcher arena's race
// on the same model. The paper's own tables time the simulated cluster; this
// times the host-side algorithms.
//
// Usage: bench_search [--model NAME] [--gpus N] [--batch N] [--jobs N]
//                     [--repeat N]
// Defaults exercise the headline configuration (largest zoo model, 8 GPUs,
// jobs 8); CI smoke runs pass e.g. `--model lenet --gpus 2 --repeat 1`.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "baselines/searcher_registry.h"
#include "core/data_parallel.h"
#include "core/os_dpos.h"
#include "core/portfolio.h"
#include "core/strategy_io.h"
#include "obs/bench_history.h"
#include "sim/exec_sim.h"
#include "sim/profiler.h"
#include "util/memtrack.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SearchInput {
  Graph graph;
  Cluster cluster;
  CompCostModel comp;
  CommCostModel comm;
  std::vector<DeviceId> placement;
};

SearchInput Prepare(const std::string& model, int gpus, int64_t batch) {
  const ModelSpec& spec = FindModel(model);
  SearchInput in{Graph{}, Cluster::SingleServer(gpus), {}, {}, {}};
  auto dp = BuildDataParallel(spec.build, spec.name,
                              batch > 0 ? batch : spec.strong_batch, gpus,
                              Scaling::kStrong);
  in.placement = CanonicalDataParallelPlacement(dp);
  in.graph = std::move(dp.graph);
  SimOptions so;
  so.noise_cv = 0.03;
  so.seed = 11;
  const RunProfile profile = ExtractProfile(
      in.graph, Simulate(in.graph, in.placement, in.cluster, so));
  in.comp.AddProfile(profile);
  in.comm.AddProfile(profile);
  return in;
}

struct SearchTiming {
  double best_s = 0.0;
  std::vector<double> samples;  // one wall-clock per repeat
  int probes = 0;
  std::string strategy;  // serialized, for the byte-identity check
};

SearchTiming TimeSearch(const SearchInput& in, int jobs, int repeat) {
  SetSearchJobs(jobs);
  SearchTiming t;
  for (int r = 0; r < repeat; ++r) {
    const double t0 = Now();
    const OsDposResult os = OsDpos(in.graph, in.cluster, in.comp, in.comm);
    const double elapsed = Now() - t0;
    t.samples.push_back(elapsed);
    if (r == 0 || elapsed < t.best_s) t.best_s = elapsed;
    t.probes = os.probes;
    t.strategy = SerializeStrategy(os.schedule.strategy);
  }
  SetSearchJobs(1);
  return t;
}

struct SearchAllocStats {
  std::vector<double> allocs;      // heap allocations per search run
  std::vector<double> peak_bytes;  // high-water tagged live bytes per run
  std::vector<double> obs_allocs;  // kObs-tagged allocations per run
};

// Allocation telemetry for the search, measured on separate untracked-time
// repeats so the timed samples above never pay the tracker. The counts are
// deterministic for a fixed input, so these samples double as a regression
// tripwire in bench-diff (an accidental copy shows up as an alloc-count
// jump long before it shows up in noisy wall-clock).
SearchAllocStats MeasureSearchAllocs(const SearchInput& in, int jobs,
                                     int repeat) {
  SetSearchJobs(jobs);
  MemTracker& mem = MemTracker::Global();
  SearchAllocStats s;
  for (int r = 0; r < repeat; ++r) {
    mem.Enable();  // Enable() zeroes, so each run measures from scratch
    const OsDposResult os = OsDpos(in.graph, in.cluster, in.comp, in.comm);
    mem.Disable();
    (void)os;
    s.allocs.push_back(static_cast<double>(mem.total_allocs()));
    s.peak_bytes.push_back(static_cast<double>(mem.total_peak_bytes()));
    // The interned-handle contract: the search hot path records metrics
    // through pre-resolved handles and never allocates obs-tagged memory,
    // so this series pins at the fixed per-search setup count (event-log
    // lines from the committed rounds). A jump here means someone put a
    // string-keyed metric lookup back inside the probe loop.
    s.obs_allocs.push_back(static_cast<double>(mem.stats(MemTag::kObs).allocs));
  }
  SetSearchJobs(1);
  return s;
}

// Arena: race the registered searcher roster with an uncapped wall budget so
// each quality column (the noise-free resimulated iteration time) is a
// deterministic function of (model, gpus, batch) — machine-independent, hence
// regression-gateable by bench-diff — while the wall-clock column stays
// informational. Every repeat runs the same race, so the quality series has
// enough identical samples to clear the hard-gate min_repeats bar.
struct ArenaStats {
  std::vector<std::string> names;
  std::vector<std::vector<double>> resim_s;  // [searcher][repeat]
  std::vector<std::vector<double>> wall_s;
  std::string winner;
  double winner_s = 0.0;
};

ArenaStats RunArena(const std::string& model, int gpus, int64_t batch,
                    int jobs, int repeat) {
  const ModelSpec& spec = FindModel(model);
  const Cluster cluster = Cluster::SingleServer(gpus);
  const std::vector<ArenaSearcher>& roster = RegisteredSearchers();
  SetSearchJobs(jobs);
  ArenaStats s;
  s.names.reserve(roster.size());
  for (const ArenaSearcher& r : roster) s.names.push_back(r.name);
  s.resim_s.resize(roster.size());
  s.wall_s.resize(roster.size());
  PortfolioOptions po;
  po.budget_s = 0.0;  // uncapped: quality depends only on the evaluation budget
  for (int r = 0; r < repeat; ++r) {
    const PortfolioResult res =
        PortfolioSearch(roster, spec.build, spec.name,
                        batch > 0 ? batch : spec.strong_batch, cluster, po);
    for (size_t i = 0; i < roster.size(); ++i) {
      s.resim_s[i].push_back(res.entries[i].resim_s);
      s.wall_s[i].push_back(res.entries[i].wall_s);
    }
    if (r == 0 && res.winner >= 0) {
      s.winner = res.entries[static_cast<size_t>(res.winner)].searcher;
      s.winner_s = res.iteration_s;
    }
  }
  SetSearchJobs(1);
  return s;
}

int Run(int argc, char** argv) {
  std::string model = "bert_large";
  int gpus = 8;
  int64_t batch = 0;
  int jobs = 8;
  int repeat = 3;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--model")) {
      model = next();
    } else if (!std::strcmp(argv[i], "--gpus")) {
      gpus = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--batch")) {
      batch = std::atoll(next());
    } else if (!std::strcmp(argv[i], "--jobs")) {
      jobs = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--repeat")) {
      repeat = std::atoi(next());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  const SearchInput in = Prepare(model, gpus, batch);
  const int host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // Timing more threads than the host has cores only measures scheduler
  // churn, so the timed parallel run is clamped to the core count; the
  // byte-identity check still runs at the requested width (determinism must
  // hold regardless of how much the threads actually overlap).
  const int jobs_eff = std::min(jobs, host_cores);
  std::printf("bench_search: %s, %d GPUs, %d live ops, %d host cores\n",
              model.c_str(), gpus, in.graph.num_live_ops(), host_cores);

  const SearchTiming serial = TimeSearch(in, 1, repeat);
  const SearchTiming parallel = TimeSearch(in, jobs_eff, repeat);
  const SearchTiming identity =
      jobs_eff == jobs ? parallel : TimeSearch(in, jobs, 1);
  const bool identical = identity.strategy == serial.strategy &&
                         parallel.strategy == serial.strategy;
  const double search_speedup =
      parallel.best_s > 0.0 ? serial.best_s / parallel.best_s : 0.0;

  const SearchAllocStats allocs = MeasureSearchAllocs(in, jobs_eff, repeat);

  const ArenaStats arena = RunArena(model, gpus, batch, jobs_eff, repeat);

  TablePrinter table({"measurement", "serial", "parallel", "speedup"});
  table.AddRow({StrFormat("OS-DPOS (%d probes), jobs %d of %d", serial.probes,
                          jobs_eff, jobs),
                StrFormat("%.3fs", serial.best_s),
                StrFormat("%.3fs", parallel.best_s),
                StrFormat("%.2fx", search_speedup)});
  std::printf("%s", table.Render().c_str());
  std::printf("strategies byte-identical across jobs: %s\n",
              identical ? "yes" : "NO");
  if (!allocs.allocs.empty()) {
    std::printf(
        "search heap: %.0f tagged allocs (%.0f obs), %s peak per run\n",
        allocs.allocs.front(), allocs.obs_allocs.front(),
        HumanBytes(allocs.peak_bytes.front()).c_str());
  }

  TablePrinter arena_table({"arena searcher", "iteration", "wall", ""});
  for (size_t i = 0; i < arena.names.size(); ++i) {
    const double q = arena.resim_s[i].front();
    arena_table.AddRow(
        {arena.names[i],
         std::isfinite(q) ? StrFormat("%.3fms", q * 1e3) : std::string("OOM"),
         StrFormat("%.3fs", arena.wall_s[i].front()),
         arena.names[i] == arena.winner ? "<- winner" : ""});
  }
  std::printf("%s", arena_table.Render().c_str());
  std::printf("arena winner: %s (%.3fms/iter over %zu searchers)\n",
              arena.winner.c_str(), arena.winner_s * 1e3, arena.names.size());

  if (const char* path = std::getenv("FASTT_BENCH_JSON");
      path != nullptr && *path != '\0') {
    BenchHistoryDoc doc;
    // Machine- and run-dependent facts go in the run metadata; params hold
    // only the configuration cell, so reports from different machines still
    // match up under bench-diff.
    doc.run = {
        {"benchmark", "bench_search"},
        {"host_cores", StrFormat("%d", host_cores)},
        {"jobs_effective", StrFormat("%d", jobs_eff)},
        {"live_ops", StrFormat("%d", in.graph.num_live_ops())},
        {"osdpos_probes", StrFormat("%d", serial.probes)},
        {"strategies_identical", identical ? "yes" : "no"},
        {"arena_winner", arena.winner},
    };
    BenchReport report;
    report.benchmark = "bench_search";
    report.params = {
        {"model", model},
        {"gpus", StrFormat("%d", gpus)},
        {"jobs", StrFormat("%d", jobs)},
    };
    auto seconds = [](const std::string& name,
                      const std::vector<double>& samples) {
      BenchMetricSeries series;
      series.name = name;
      series.unit = "s";
      series.lower_is_better = true;
      series.samples = samples;
      return series;
    };
    auto counted = [](const std::string& name, const std::string& unit,
                      const std::vector<double>& samples) {
      BenchMetricSeries series;
      series.name = name;
      series.unit = unit;
      series.lower_is_better = true;
      series.samples = samples;
      return series;
    };
    report.metrics = {
        seconds("osdpos_serial_s", serial.samples),
        seconds("osdpos_parallel_s", parallel.samples),
        counted("osdpos_allocs", "count", allocs.allocs),
        counted("osdpos_peak_bytes", "bytes", allocs.peak_bytes),
        counted("osdpos_obs_allocs", "count", allocs.obs_allocs),
    };
    // Arena rows: the iteration series is deterministic (every repeat finds
    // the same strategy under an uncapped wall budget), so bench-diff gates
    // searcher quality; the wall series rides along as context.
    for (size_t i = 0; i < arena.names.size(); ++i) {
      report.metrics.push_back(
          seconds("arena_" + arena.names[i] + "_iteration_s",
                  arena.resim_s[i]));
      report.metrics.push_back(
          seconds("arena_" + arena.names[i] + "_wall_s", arena.wall_s[i]));
    }
    doc.reports.push_back(std::move(report));
    doc.process_metrics_json = MetricsRegistry::Global().ToJson();
    WriteBenchHistoryDoc(doc, path);
    std::printf("wrote benchmark JSON to %s\n", path);
  }

  return identical ? 0 : 1;
}

}  // namespace
}  // namespace fastt

int main(int argc, char** argv) { return fastt::Run(argc, argv); }
