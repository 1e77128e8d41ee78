// bench_e2e — the headline end-to-end benchmark.
//
// Each workload is one user request at the paper's headline scale: RunFastT
// (the StrategyCalculator workflow) or PortfolioSearch over the searcher
// arena. Two phases measure it:
//
//   end to end  the request timed from outside with tracing off — host wall
//               time (time-to-strategy), process CPU, peak RSS, set-up time
//               (building the request's input graph) and the quality of the
//               returned strategy (its training samples/s, re-simulated
//               noise-free);
//   per layer   one plain request, one instrumented request (the existing
//               tracer, MemTracker and program counters switched on; the
//               tracer's own phase summary gives the self times), and
//               bench-timed replays of each layer's public call on the
//               workload's inputs.
//
// Every request's strategy is checked: it must pass VerifyStrategy with zero
// errors, serialize byte-identically to every other request at the same
// seed, and the instrumented run must drain with nothing dropped. A failed
// check makes the program exit 1 (2 on bad usage). Every time reported is
// scaled to the host's reference speed (see SerialProbeS and HostSampler).
//
// Usage: bench_e2e [--workload NAME|all] [--seed S] [--seconds N]
//                  [--trace 0|1]
//
//   --workload  bert8 | gnmt8 | vgg19-2x8 | arena-bert8 | all (default)
//   --seed      the first of the timed requests' calculator / search seeds
//               (see kRunSeeds), the seed of the per-layer requests and
//               the profiling noise of the inputs the replays run on
//               (default 7)
//   --seconds   measuring budget of each phase (default 28); 0 makes the
//               minimum of timed requests, set-up builds and replays
//   --trace     0: end-to-end phase only; 1: per-layer phase only
//               (default: both)
//
// FASTT_BENCH_JSON=path writes the results as one fastt-bench/1 document
// (one report per workload), so `fastt bench-diff` compares two runs. Each
// phase of each workload runs in its own forked child, forked before any
// search-pool thread exists: workloads share no heap, pool or tracer state,
// and each child's ru_maxrss is its own.
#include <pthread.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/verifier.h"
#include "baselines/searcher_registry.h"
#include "core/data_parallel.h"
#include "core/dpos.h"
#include "core/portfolio.h"
#include "core/strategy_calculator.h"
#include "core/strategy_io.h"
#include "models/model_zoo.h"
#include "obs/bench_history.h"
#include "obs/build_info.h"
#include "obs/calibration.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"
#include "sim/exec_sim.h"
#include "sim/profiler.h"
#include "util/memtrack.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

using Clock = std::chrono::steady_clock;

// The timed requests of a run cycle through kRunSeeds calculator/search
// seeds: --seed, --seed + kSeedStride, ... RunFastT's work is chaotic in its
// seed (one vgg19-2x8 request makes 98 to 128 DPOS calls over ten seeds),
// so a median over a few seeds moves less from one run's seed to the next
// than a single seed's would, and each seed still repeats for the
// byte-identity check on the fast workloads.
constexpr int kRunSeeds = 4;
constexpr uint64_t kSeedStride = 1000;
// Set-up builds before each timed request (the median is reported; it skips
// the first builds, which fault in the child's fresh heap).
constexpr int kSetupBuildsPerRequest = 10;
// Replays per layer call at least.
constexpr int kMinReplays = 5;
// Tracer ring per thread, in events. DPOS emits one ready-queue counter
// sample per placed op — millions per bert8 request — and the default 64k
// ring drops most of them; 4M drops none at any workload here.
constexpr size_t kTraceRingEvents = size_t{4} << 20;
constexpr double kMiB = 1024.0 * 1024.0;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ClockS(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Every time the benchmark reports is scaled to the host's reference speed.
// The benchmark host is shared: its speed moves by 10-50% from one second to
// the next as other tenants come and go, more than the bounds gate on. The
// scale comes from a fixed probe, a random walk over a 1 MiB table, each
// step a dependent load and multiply, which shares no code and no heap with
// the program under test. It is timed one of two ways:
//
//   work on the calling thread (set-up builds, jobs-1 requests, and layer
//   replays, whose one parallel call, Dpos's per-device scoring, is short):
//   on that thread itself, just before and just after the work. This sees
//   the core the work ran on.
//
//   multi-threaded requests: by a HostSampler thread every kSampleInterval
//   while the request runs, in the sampler thread's CPU time (so it leaves
//   out the time the sampler waits for a core the request's threads hold).
//   A probe before and after a request that keeps every core busy for
//   seconds sees one moment of one core, not the request's average.
//
// On a 4-vCPU Xeon VM, over ten runs at ten seeds, the spread between the
// quartiles of the run medians of bert8 and arena-bert8 request wall time
// was 23-31% scaled by probes before and after, and 4-14% scaled by the
// sampler; serial vgg19-2x8, whose one thread the sampler runs beside
// rather than on, went the other way, from 9% to 17%.
//
// Between samples the sampler's table leaves the core's caches, whatever
// the program does, so the program's own memory traffic moves the sampled
// probe little: its mean differed by under 7% between the four workloads
// run back to back.
constexpr double kSerialReferenceS = 0.022;  // typical on that VM
constexpr int kSerialSteps = 2'000'000;
constexpr double kSampleReferenceS = 3.3e-3;  // typical on that VM
constexpr int kSampleSteps = 100'000;
constexpr auto kSampleInterval = std::chrono::milliseconds(50);

const std::vector<uint32_t>& ProbeTable() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(1u << 18);  // 2^18 entries = 1 MiB
    uint64_t x = 88172645463325252ull;  // xorshift64
    for (uint32_t& v : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<uint32_t>(x);
    }
    return t;
  }();
  return table;
}

void Probe(int steps) {
  const std::vector<uint32_t>& table = ProbeTable();
  const uint32_t mask = static_cast<uint32_t>(table.size()) - 1;
  uint64_t h = 1469598103934665603ull;
  uint32_t p = 0;
  for (int i = 0; i < steps; ++i) {
    p = table[(p ^ static_cast<uint32_t>(h)) & mask];
    h = (h ^ p) * 1099511628211ull;
  }
  asm volatile("" : : "r"(h));  // keep the chain: its result is "used"
}

double SerialProbeS() {
  const auto t0 = Clock::now();
  Probe(kSerialSteps);
  return Since(t0);
}

class HostSampler {
 public:
  HostSampler() {
    samples_.reserve(kMaxSamples);
    ProbeTable();  // built here, outside the samples
    thread_ = std::thread([this] {
      do {
        const double t0 = ClockS(CLOCK_THREAD_CPUTIME_ID);
        Probe(kSampleSteps);
        if (samples_.size() < kMaxSamples)
          samples_.push_back(ClockS(CLOCK_THREAD_CPUTIME_ID) - t0);
        std::this_thread::sleep_for(kSampleInterval);
      } while (!stop_.load());
    });
    pthread_getcpuclockid(thread_.native_handle(), &clock_);
  }
  ~HostSampler() { Stop(); }

  // The sampler's own CPU time so far, to leave out of the process's.
  double CpuS() const { return ClockS(clock_); }

  // Stops sampling; returns the factor that scales the times measured
  // meanwhile to the host's reference speed.
  double Stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
    }
    return kSampleReferenceS / Mean(samples_);
  }

 private:
  static constexpr size_t kMaxSamples = 1 << 16;  // no allocation while timing

  std::vector<double> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  clockid_t clock_{};
};

struct Workload {
  const char* name;
  const char* model;
  int servers;
  int gpus_per_server;
  int64_t batch;  // global (strong scaling)
  int jobs;       // search width asked for; capped at the host's cores
  bool arena;     // PortfolioSearch over the arena instead of RunFastT
};

// Why each workload is in the set: bench/e2e/README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"bert8", "bert_large", 1, 8, 16, 4, false},
    {"gnmt8", "gnmt", 1, 8, 128, 4, false},
    {"vgg19-2x8", "vgg19", 2, 8, 64, 1, false},
    {"arena-bert8", "bert_large", 1, 8, 16, 4, true},
};

struct Options {
  std::string workload = "all";
  uint64_t seed = 7;
  double seconds = 28.0;
  int trace = -1;  // -1: both phases
};

// FNV-1a, to compare strategies across the phases' processes.
std::string Fingerprint(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

double Median(const std::vector<double>& xs) { return Percentile(xs, 50.0); }

double SamplesPerS(int64_t global_batch, double iteration_s) {
  return std::isfinite(iteration_s)
             ? static_cast<double>(global_batch) /
                   (iteration_s + kSessionOverheadS)
             : 0.0;
}

// What one request returned, evaluated after its clock stopped.
struct Outcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string strategy;     // serialized
  double iteration_s = 0.0;  // noise-free re-simulation; +inf when OOM
  // Training speed of the returned strategy, the paper's Table 1 quantity
  // (SamplesPerSecond over the noise-free iteration); 0 when OOM.
  double samples_per_s = 0.0;
  // RunFastT: 1 when the strategy failed, else 0. Arena: share of racers
  // whose candidate was infeasible or rejected by the verifier.
  double failed_share = 0.0;
  bool failed = false;  // infeasible, verifier errors, or not reproducible
  std::string detail;   // one human-readable line
  std::string table;    // arena: the racer table
};

class Bench {
 public:
  Bench(const Workload& w, const Options& options)
      : w_(w),
        spec_(FindModel(w.model)),
        cluster_(w.servers == 1
                     ? Cluster::SingleServer(w.gpus_per_server)
                     : Cluster::MultiServer(w.servers, w.gpus_per_server)),
        options_(options) {
    SetSearchJobs(std::min(
        w.jobs, std::max(1, static_cast<int>(
                                std::thread::hardware_concurrency()))));
  }

  // The end-to-end phase.
  BenchReport EndToEnd() {
    // A batch of set-up builds goes before each timed request: the host's
    // speed drifts over seconds, so set-up is sampled across the whole run
    // as the requests are.
    std::vector<double> setup, wall, cpu, throughput;
    auto build = [&] {
      const auto t0 = Clock::now();
      const DataParallelGraph dp =
          BuildDataParallel(spec_.build, spec_.name, w_.batch,
                            cluster_.num_devices(), Scaling::kStrong);
      const double elapsed = Since(t0);  // the graph is freed after this
      live_ops_ = dp.graph.num_live_ops();
      return elapsed;
    };

    const auto start = Clock::now();
    for (int n = 0;; ++n) {
      // Start another request only if it should end within the budget, but
      // time at least two: a run's median should not rest on one request.
      if (n >= 2 && Since(start) * (n + 1) / n > options_.seconds) break;
      std::vector<double> builds;
      const double build_scale = Scaled(1, [&] {
        for (int i = 0; i < kSetupBuildsPerRequest; ++i)
          builds.push_back(build());
      });
      for (double b : builds) setup.push_back(b * build_scale);
      const uint64_t seed =
          options_.seed + kSeedStride * static_cast<uint64_t>(n % kRunSeeds);
      Outcome r;
      const double host_scale =
          Scaled(SearchJobs(), [&] { r = Request(seed); });
      if (n < kRunSeeds)
        std::printf("  request, seed %llu: %s\n%s",
                    static_cast<unsigned long long>(seed), r.detail.c_str(),
                    r.table.c_str());
      wall.push_back(r.wall_s * host_scale);
      cpu.push_back(r.cpu_s * host_scale);
      // Quality at --seed only, so it does not depend on how many of the
      // seeds the budget reached.
      if (seed == options_.seed) throughput.push_back(r.samples_per_s);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mib = static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;

    BenchReport report;
    Add(report, "search_s", "s", wall);
    Add(report, "search_cpu_s", "s", cpu);
    Add(report, "setup_s", "s", setup);
    Add(report, "peak_rss_mib", "MiB", {rss_mib});
    Add(report, "samples_per_s", "samples/s", throughput,
        /*lower_is_better=*/false);
    return report;
  }

  // The per-layer phase.
  BenchReport Layers() {
    const auto start = Clock::now();
    Outcome plain;
    const double plain_scale =
        Scaled(SearchJobs(), [&] { plain = Request(options_.seed); });

    Tracer& tracer = Tracer::Global();
    tracer.SetRingCapacity(kTraceRingEvents);
    tracer.SetCurrentThreadName("bench main");
    MemTracker& mem = MemTracker::Global();
    MetricsRegistry& registry = MetricsRegistry::Global();
    // The program's own counters, read the moment the request returns (the
    // evaluation that follows simulates and verifies too).
    std::map<std::string, double> counted;
    uint64_t pool_tasks = 0;
    Outcome traced;
    auto record = [&](bool starting) {
      if (starting) {
        registry.Reset();
        pool_tasks = SearchPoolStats().tasks;
        mem.Enable();
        tracer.Enable();
        return;
      }
      tracer.Disable();
      mem.Disable();
      pool_tasks = SearchPoolStats().tasks - pool_tasks;
      for (const char* name :
           {"calculator/rounds", "calculator/rollbacks",
            "cost/comm_table_builds", "cost/comp_table_builds",
            "dpos/invocations", "os_dpos/split_probes",
            "os_dpos/splits_committed", "sim/runs"})
        counted[name] = static_cast<double>(registry.counter(name));
      counted["sim/simulate"] = registry.timer_total_s("sim/simulate");
    };
    const double scale = Scaled(
        SearchJobs(), [&] { traced = Request(options_.seed, record); });
    std::printf("  instrumented request, seed %llu: %s\n",
                static_cast<unsigned long long>(options_.seed),
                traced.detail.c_str());
    const TraceSummary trace = SummarizeTrace(tracer.Drain());
    Check(trace.dropped_events == 0 && trace.dropped_spans == 0,
          StrFormat("instrumented run dropped %llu events, %llu spans",
                    static_cast<unsigned long long>(trace.dropped_events),
                    static_cast<unsigned long long>(trace.dropped_spans)));

    // Trace times are scaled like every other time; shares and counts are not.
    auto phase = [&](const char* name) {
      for (TracePhase p : trace.phases)
        if (p.name == name) {
          p.total_s *= scale;
          p.self_s *= scale;
          return p;
        }
      return TracePhase{};
    };
    auto count = [&](const char* name) {
      return std::vector<double>{counted.at(name)};
    };
    auto one = [](double v) { return std::vector<double>{v}; };
    auto mib = [&](MemTag tag) {
      return one(static_cast<double>(mem.stats(tag).peak_bytes) / kMiB);
    };
    const double wall = traced.wall_s * scale;
    const double osdpos_s = phase("osdpos/total").total_s;
    const int workers = SearchJobs() - 1;

    BenchReport report;
    Replays(report, start);
    Add(report, "mem.graph.peak_mib", "MiB", mib(MemTag::kGraph));
    Add(report, "sim.busy_s", "s", one(counted.at("sim/simulate") * scale));
    Add(report, "sim.runs", "count", count("sim/runs"));
    Add(report, "mem.sim.peak_mib", "MiB", mib(MemTag::kSimEvents));
    Add(report, "cost.comp_table_s", "s", one(phase("cost/comp_table").self_s));
    Add(report, "cost.comm_table_s", "s", one(phase("cost/comm_table").self_s));
    Add(report, "cost.table_builds", "count",
        one(counted.at("cost/comp_table_builds") +
            counted.at("cost/comm_table_builds")));
    Add(report, "mem.cost.peak_mib", "MiB", mib(MemTag::kCost));
    Add(report, "rank.self_s", "s", one(phase("dpos/rank").self_s));
    Add(report, "dpos.list_schedule_s", "s",
        one(phase("dpos/list_schedule").self_s));
    Add(report, "dpos.cp_device_s", "s", one(phase("dpos/cp_device").self_s));
    Add(report, "dpos.calls", "count", count("dpos/invocations"));
    Add(report, "mem.dpos.peak_mib", "MiB", mib(MemTag::kDpos));
    Add(report, "osdpos.wall_s", "s", one(osdpos_s));
    Add(report, "osdpos.trial_self_s", "s", one(phase("osdpos/trial").self_s));
    Add(report, "osdpos.probe_self_s", "s",
        one(phase("osdpos/probe_op").self_s));
    Add(report, "osdpos.trials", "count", count("os_dpos/split_probes"));
    Add(report, "osdpos.splits", "count", count("os_dpos/splits_committed"));
    Add(report, "calc.rounds", "count", count("calculator/rounds"));
    Add(report, "calc.rollbacks", "count", count("calculator/rollbacks"));
    Add(report, "calc.outside_osdpos_s", "s", one(wall - osdpos_s));
    Add(report, "mem.obs.peak_mib", "MiB", mib(MemTag::kObs));
    Add(report, "obs.overhead_pct", "%",
        one(100.0 * (wall / (plain.wall_s * plain_scale) - 1.0)));
    Add(report, "pool.tasks", "count", one(static_cast<double>(pool_tasks)));
    Add(report, "pool.worker_busy_share", "ratio",
        one(workers > 0 ? phase("pool/task").total_s / (workers * wall) : 0.0),
        /*lower_is_better=*/false);
    Add(report, "pool.wait_share", "ratio",
        one(phase("pool/run").self_s / wall));
    Add(report, "mem.allocs", "count",
        one(static_cast<double>(mem.total_allocs())));
    Add(report, "mem.peak_mib", "MiB",
        one(static_cast<double>(mem.total_peak_bytes()) / kMiB));
    Add(report, "quality.failed_share", "ratio", one(traced.failed_share));
    return report;
  }

  // Run metadata of this child, merged by the parent under "<workload>.".
  std::map<std::string, std::string> Metadata(const std::string& phase) const {
    std::map<std::string, std::string> meta = {
        {"jobs_effective", StrFormat("%d", SearchJobs())},
        {"live_ops", StrFormat("%d", live_ops_)},
        {"attempted", StrFormat("%d", attempted_)},
        {"failed", StrFormat("%d", failed_)},
        {"strategy_fnv", Fingerprint(strategy_by_seed_.at(options_.seed))},
        {"checks", failures_.empty() ? "ok" : Join(failures_, "; ")}};
    // The factor behind the phase's scaled times: raw = scaled / factor.
    meta["host_scale." + phase] = StrFormat("%.6g", Median(scales_));
    return meta;
  }

  bool ok() const { return failures_.empty(); }

 private:
  static void Add(BenchReport& report, const char* name, const char* unit,
                  std::vector<double> samples, bool lower_is_better = true) {
    BenchMetricSeries series;
    series.name = name;
    series.unit = unit;
    series.lower_is_better = lower_is_better;
    series.samples = std::move(samples);
    report.metrics.push_back(std::move(series));
  }

  // Runs `work`, which keeps `threads` threads busy, and returns the factor
  // that scales its times to the host's reference speed.
  double Scaled(int threads, const std::function<void()>& work) {
    if (threads == 1) {
      const double before = SerialProbeS();
      work();
      scales_.push_back(kSerialReferenceS /
                        (0.5 * (before + SerialProbeS())));
    } else {
      HostSampler sampler;
      sampler_ = &sampler;
      work();
      sampler_ = nullptr;
      scales_.push_back(sampler.Stop());
    }
    return scales_.back();
  }

  // The process's CPU time, less the running sampler's.
  double CpuS() const {
    return ClockS(CLOCK_PROCESS_CPUTIME_ID) -
           (sampler_ != nullptr ? sampler_->CpuS() : 0.0);
  }

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "bench_e2e: %s: check failed: %s\n", w_.name,
                 what.c_str());
    failures_.push_back(what);
  }

  // One request at `seed`. `record(true/false)` brackets exactly the timed
  // section, so an instrumented request records nothing of its evaluation.
  Outcome Request(uint64_t seed,
                  const std::function<void(bool)>& record = nullptr) {
    Outcome out;
    if (record) record(true);
    const auto t0 = Clock::now();
    const double c0 = CpuS();
    if (w_.arena) {
      PortfolioOptions po;
      po.budget_s = 0.0;  // uncapped: the race is deterministic
      po.search.seed = seed;
      PortfolioResult p = PortfolioSearch(RegisteredSearchers(), spec_.build,
                                          spec_.name, w_.batch, cluster_, po);
      out.wall_s = Since(t0);
      out.cpu_s = CpuS() - c0;
      if (record) record(false);
      EvaluateArena(p, &out);
    } else {
      CalculatorOptions co;
      co.seed = seed;
      CalculatorResult r = RunFastT(spec_.build, spec_.name, w_.batch,
                                    Scaling::kStrong, cluster_, co);
      out.wall_s = Since(t0);
      out.cpu_s = CpuS() - c0;
      if (record) record(false);
      EvaluateFastT(std::move(r), &out);
    }

    ++attempted_;
    const auto [first, fresh] = strategy_by_seed_.emplace(seed, out.strategy);
    if (!fresh && first->second != out.strategy) {
      Check(false, StrFormat("seed %llu: strategy differs from the seed's "
                             "first request",
                             static_cast<unsigned long long>(seed)));
      out.failed = true;
    }
    if (out.failed) ++failed_;
    return out;
  }

  void EvaluateFastT(CalculatorResult r, Outcome* out) {
    const VerifyResult verdict =
        VerifyStrategy(r.graph, r.strategy, cluster_);
    Check(verdict.ok(), StrFormat("VerifyStrategy: %d errors, first %s",
                                  verdict.errors,
                                  verdict.first_error_rule().c_str()));
    out->strategy = SerializeStrategy(r.strategy);
    SearchResult sr;
    sr.graph = std::move(r.graph);
    sr.placement = r.strategy.placement;
    sr.execution_order = r.strategy.execution_order;
    out->iteration_s = ResimulateIteration(sr, cluster_);
    out->samples_per_s = SamplesPerS(r.global_batch, out->iteration_s);
    out->failed = !verdict.ok() || !std::isfinite(out->iteration_s);
    out->failed_share = out->failed ? 1.0 : 0.0;

    int oom = 0;
    int committed = 0;
    std::vector<double> abs_err;
    for (const RoundSummary& s : r.round_history) {
      oom += s.oom ? 1 : 0;
      committed += s.committed ? 1 : 0;
      if (s.measured_s > 0.0) abs_err.push_back(std::fabs(s.rel_error));
    }
    out->detail = StrFormat(
        "iteration %.3f ms%s, %d rounds (%d committed), %d rollbacks "
        "(%d OOM), %zu splits, pretrain sim %.2f s, mean |pred err| %.2f, "
        "algorithm %.2f s",
        out->iteration_s * 1e3, std::isfinite(out->iteration_s) ? "" : " (OOM)",
        r.rounds, committed, r.rollbacks, oom, r.strategy.splits.size(),
        r.strategy_time_s - r.algorithm_time_s, Mean(abs_err),
        r.algorithm_time_s);
  }

  void EvaluateArena(const PortfolioResult& p, Outcome* out) {
    Check(p.winner >= 0, "arena: no verified winner");
    if (p.winner >= 0) {
      out->strategy = SerializeStrategy(p.strategy);
      out->iteration_s = p.iteration_s;
    } else {
      out->iteration_s = std::numeric_limits<double>::infinity();
    }
    out->failed = p.winner < 0 || !std::isfinite(out->iteration_s);
    out->samples_per_s = SamplesPerS(p.global_batch, out->iteration_s);
    int bad = 0;
    TablePrinter table({"racer", "iteration", "wall", "evals", "verified"});
    for (const PortfolioEntry& e : p.entries) {
      const bool feasible = std::isfinite(e.resim_s);
      bad += e.verified && feasible ? 0 : 1;
      table.AddRow({e.searcher + (e.winner ? " (winner)" : ""),
                    feasible ? StrFormat("%.3f ms", e.resim_s * 1e3)
                             : std::string("OOM"),
                    StrFormat("%.3f s", e.wall_s),
                    StrFormat("%d", e.evaluations),
                    e.verified ? "yes" : "no"});
    }
    out->failed_share = p.entries.empty()
                            ? 1.0
                            : static_cast<double>(bad) /
                                  static_cast<double>(p.entries.size());
    out->detail = StrFormat("winner %.3f ms, %d of %zu racers failed",
                            out->iteration_s * 1e3, bad, p.entries.size());
    out->table = table.Render();
  }

  // Bench-timed replays of each layer's public call on the workload's input
  // graph, with cost models bootstrapped from one profiled data-parallel
  // step at the run's seed. Calls run round-robin, so drift in the host's
  // speed hits every layer alike, until the phase's budget is spent.
  void Replays(BenchReport& report, Clock::time_point phase_start) {
    DataParallelGraph dp = BuildDataParallel(
        spec_.build, spec_.name, w_.batch, cluster_.num_devices(),
        Scaling::kStrong);
    const Graph& base = dp.graph;
    live_ops_ = base.num_live_ops();
    const std::vector<DeviceId> placement = CanonicalDataParallelPlacement(dp);
    SimOptions noisy;
    noisy.dispatch = DispatchMode::kRandom;
    noisy.noise_cv = CalculatorOptions{}.noise_cv;
    noisy.seed = options_.seed;
    const SimResult profiled = Simulate(base, placement, cluster_, noisy);
    CompCostModel comp;
    CommCostModel comm;
    const RunProfile profile = ExtractProfile(base, profiled);
    comp.AddProfile(profile);
    comm.AddProfile(profile);

    // The strategy one pre-training round would compute from these models;
    // the verifier and the calibration audit replay on it.
    const DposResult sched = Dpos(base, cluster_, comp, comm);
    const Strategy& strategy = sched.strategy;
    VerifierOptions cheap;
    cheap.cheap_only = true;
    const VerifyResult full = VerifyStrategy(base, strategy, cluster_, &comm);
    std::vector<double> predicted(static_cast<size_t>(base.num_slots()), 0.0);
    for (OpId id : base.LiveOps())
      predicted[static_cast<size_t>(id)] =
          sched.finish_time[static_cast<size_t>(id)] -
          sched.start_time[static_cast<size_t>(id)];
    SimOptions ordered = noisy;
    ordered.dispatch = DispatchMode::kPriority;
    ordered.priorities =
        PrioritiesFromOrder(strategy.execution_order, base.num_slots());
    const SimResult realized =
        Simulate(base, strategy.placement, cluster_, ordered);

    struct Replay {
      const char* metric;
      std::function<void()> call;
      std::vector<double> samples;
    };
    std::vector<Replay> replays = {
        {"graph.copy_s", [&] { Graph copy = base; }, {}},
        {"sim.simulate_s",
         [&] { (void)Simulate(base, placement, cluster_, noisy); }, {}},
        {"sim.profile_fit_s",
         [&] {
           CompCostModel c;
           CommCostModel m;
           const RunProfile p = ExtractProfile(base, profiled);
           c.AddProfile(p);
           m.AddProfile(p);
         },
         {}},
        {"dpos.call_s", [&] { (void)Dpos(base, cluster_, comp, comm); }, {}},
        {"verify.cheap_s",
         [&] {
           (void)VerifyStrategy(base, strategy, cluster_, &comm, cheap);
         },
         {}},
        {"verify.full_s",
         [&] { (void)VerifyStrategy(base, strategy, cluster_, &comm); },
         {}},
        {"calibration.round_s",
         [&] {
           (void)ComputeCalibration(base, predicted, strategy.placement, comm,
                                    realized);
         },
         {}},
    };
    for (int rep = 0;
         rep < kMinReplays || Since(phase_start) < options_.seconds; ++rep) {
      std::vector<double> round;
      const double host_scale = Scaled(1, [&] {
        for (Replay& r : replays) {
          const auto t0 = Clock::now();
          r.call();
          round.push_back(Since(t0));
        }
      });
      for (size_t i = 0; i < replays.size(); ++i)
        replays[i].samples.push_back(round[i] * host_scale);
    }

    Add(report, "graph.live_ops", "count",
        {static_cast<double>(base.num_live_ops())});
    for (Replay& r : replays) Add(report, r.metric, "s", std::move(r.samples));
    Add(report, "verify.warnings", "count",
        {static_cast<double>(full.warnings)});
  }

  const Workload& w_;
  const ModelSpec& spec_;
  const Cluster cluster_;
  const Options& options_;
  int live_ops_ = 0;
  std::vector<double> scales_;  // of each Scaled() call, in order
  const HostSampler* sampler_ = nullptr;  // while Scaled() runs its work
  int attempted_ = 0;
  int failed_ = 0;
  std::map<uint64_t, std::string> strategy_by_seed_;  // first, serialized
  std::vector<std::string> failures_;
};

// Runs one phase in a forked child and returns its one-report document
// (the report plus the child's metadata under "run"). False when a check
// failed (the document says which) or, with `failure` set, when the child
// crashed or threw and left no document.
bool RunPhase(const Workload& w, const Options& options, bool layers,
              BenchHistoryDoc* out, std::string* failure) {
  std::fflush(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    *failure = "pipe() failed";
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    *failure = "fork() failed";
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string json;
    try {
      Bench bench(w, options);
      BenchHistoryDoc doc;
      doc.reports.push_back(layers ? bench.Layers() : bench.EndToEnd());
      doc.run = bench.Metadata(layers ? "per_layer" : "end_to_end");
      json = BenchHistoryDocToJson(doc);
      code = bench.ok() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: %s: %s\n", w.name, e.what());
      code = 3;
    }
    for (size_t off = 0; off < json.size();) {
      const ssize_t n = write(fds[1], json.data() + off, json.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    close(fds[1]);
    std::fflush(nullptr);
    _exit(code);
  }
  close(fds[1]);
  std::string json;
  char buf[1 << 16];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;)
    json.append(buf, static_cast<size_t>(n));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) == 3 ||
      !ParseBenchHistoryDoc(json, out) || out->reports.size() != 1) {
    *failure = WIFSIGNALED(status)
                   ? StrFormat("%s phase killed by signal %d",
                               layers ? "per-layer" : "end-to-end",
                               WTERMSIG(status))
                   : StrFormat("%s phase produced no result",
                               layers ? "per-layer" : "end-to-end");
    return false;
  }
  return WEXITSTATUS(status) == 0;
}

void PrintReport(const BenchReport& report) {
  TablePrinter table({"metric", "unit", "median", "q1", "q3", "n"});
  for (const BenchMetricSeries& m : report.metrics) {
    table.AddRow({m.name, m.unit, StrFormat("%.6g", m.median),
                  StrFormat("%.6g", Percentile(m.samples, 25.0)),
                  StrFormat("%.6g", Percentile(m.samples, 75.0)),
                  StrFormat("%zu", m.samples.size())});
  }
  std::printf("%s", table.Render().c_str());
}

int Run(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--workload")) {
      options.workload = next();
    } else if (!std::strcmp(argv[i], "--seed")) {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seconds")) {
      options.seconds = std::atof(next());
    } else if (!std::strcmp(argv[i], "--trace")) {
      options.trace = std::atoi(next());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads)
    if (options.workload == "all" || options.workload == w.name)
      selected.push_back(&w);
  if (selected.empty() || options.trace < -1 || options.trace > 1 ||
      !(options.seconds >= 0.0)) {
    std::fprintf(stderr,
                 "usage: bench_e2e [--workload bert8|gnmt8|vgg19-2x8|"
                 "arena-bert8|all] [--seed S] [--seconds N] [--trace 0|1]\n");
    return 2;
  }

  const BuildInfoData& build = BuildInfo();
  BenchHistoryDoc doc;
  // "phases" names the BENCHMARK.json metric lists the reports hold.
  doc.run = {
      {"benchmark", "bench_e2e"},
      {"workload", options.workload},
      {"phases", options.trace == -1  ? "end_to_end,per_layer"
                 : options.trace == 0 ? "end_to_end"
                                      : "per_layer"},
      {"seed",
       StrFormat("%llu", static_cast<unsigned long long>(options.seed))},
      {"seconds", StrFormat("%g", options.seconds)},
      {"host_cores",
       StrFormat("%u", std::max(1u, std::thread::hardware_concurrency()))},
      {"build.git_sha", build.git_sha},
      {"build.compiler", build.compiler},
      {"build.build_type", build.build_type},
      {"build.flags", build.flags},
  };
  bool ok = true;
  for (const Workload* w : selected) {
    std::printf("== %s: %s %s, %dx%d GPUs, batch %lld, jobs %d ==\n", w->name,
                w->arena ? "PortfolioSearch" : "RunFastT", w->model,
                w->servers, w->gpus_per_server,
                static_cast<long long>(w->batch), w->jobs);
    BenchReport report;
    report.benchmark = "bench_e2e";
    report.params = {{"workload", w->name},
                     {"model", w->model},
                     {"cluster", StrFormat("%dx%d", w->servers,
                                           w->gpus_per_server)},
                     {"batch",
                      StrFormat("%lld", static_cast<long long>(w->batch))},
                     {"request", w->arena ? "PortfolioSearch" : "RunFastT"}};
    // Per-workload metadata: counts add up over the phases, checks collect
    // (a child prints its own failed checks; the parent prints what only it
    // can see).
    const std::string key_prefix = std::string(w->name) + ".";
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> failures;
    auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "bench_e2e: %s: %s\n", w->name, what.c_str());
      failures.push_back(what);
    };
    std::vector<std::string> fingerprints;
    for (int layers = 0; layers <= 1; ++layers) {
      if (options.trace != -1 && options.trace != layers) continue;
      BenchHistoryDoc phase;
      std::string failure;
      if (!RunPhase(*w, options, layers == 1, &phase, &failure) &&
          !failure.empty()) {
        fail(failure);
        continue;
      }
      for (const auto& [key, value] : phase.run)
        doc.run[key_prefix + key] = value;
      attempted += std::atoi(phase.run["attempted"].c_str());
      failed += std::atoi(phase.run["failed"].c_str());
      if (phase.run["checks"] != "ok") failures.push_back(phase.run["checks"]);
      fingerprints.push_back(phase.run["strategy_fnv"]);
      for (BenchMetricSeries& m : phase.reports.front().metrics)
        report.metrics.push_back(std::move(m));
    }
    if (fingerprints.size() == 2 && fingerprints[0] != fingerprints[1])
      fail("check failed: the phases' strategies differ");
    ok = ok && failures.empty();
    doc.run[key_prefix + "attempted"] = StrFormat("%d", attempted);
    doc.run[key_prefix + "failed"] = StrFormat("%d", failed);
    doc.run[key_prefix + "checks"] =
        failures.empty() ? "ok" : Join(failures, "; ");
    PrintReport(report);
    doc.reports.push_back(std::move(report));
  }

  if (const char* path = std::getenv("FASTT_BENCH_JSON");
      path != nullptr && *path != '\0') {
    WriteBenchHistoryDoc(doc, path);
    std::printf("wrote benchmark JSON to %s\n", path);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace fastt

int main(int argc, char** argv) { return fastt::Run(argc, argv); }
