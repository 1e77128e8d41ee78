// Fixed-size thread pool and a deterministic ParallelFor on top of it.
//
// The strategy search is the product's "in minutes" promise, and its hot
// loops — the critical-path device scan in DPOS, split-factor trials in
// OS-DPOS — are embarrassingly parallel. The pool here is deliberately minimal: a
// shared queue, no work stealing, no futures. Determinism is the design
// constraint, not throughput: ParallelFor writes each index's result into a
// caller-owned slot and callers reduce serially in index order afterwards,
// so the outcome is bit-identical for any worker count (including zero).
//
// Nested ParallelFor calls (e.g. a parallel OS-DPOS trial invoking DPOS,
// which itself calls ParallelFor) run the inner loop serially on the worker
// thread — same results, no pool deadlock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace fastt {

// Occupancy counters kept by the pool itself (the pool lives below the
// observability layer, so fastt_obs copies these into the metrics registry
// rather than the pool pushing them).
struct PoolStats {
  int jobs = 1;                 // search width (workers + caller)
  uint64_t batches = 0;         // Run() calls that dispatched to workers
  uint64_t tasks = 0;           // tasks executed on worker threads
  uint64_t queue_wait_ns = 0;   // total enqueue -> dequeue latency
  std::vector<uint64_t> worker_tasks;  // tasks per worker
};

class ThreadPool {
 public:
  // Spawns `num_threads` workers (0 = no workers; Run executes inline).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Runs fn(i) for i in [0, n), partitioned into contiguous chunks executed
  // by the workers (and the calling thread). Blocks until every index has
  // run. fn must not throw; calls for distinct i must be data-independent.
  void Run(size_t n, const std::function<void(size_t)>& fn);

  // True while the current thread is a pool worker executing a task; used to
  // serialize nested parallelism.
  static bool InWorker();

  // Snapshot of the occupancy counters (jobs is filled by the caller that
  // owns the pool). Safe to call while Run is active; counts are relaxed.
  PoolStats Stats() const;

 private:
  struct Task {
    std::function<void()> fn;
    int64_t enqueue_ns = 0;
  };

  void WorkerLoop(int worker_index);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::queue<Task> tasks_ FASTT_GUARDED_BY(mu_);
  bool stop_ FASTT_GUARDED_BY(mu_) = false;

  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> queue_wait_ns_{0};
  std::vector<std::atomic<uint64_t>> worker_tasks_;  // sized at construction
};

// ---- Process-wide search concurrency ---------------------------------------
//
// The `--jobs N` knob (and the FASTT_JOBS environment variable) select how
// many threads the strategy search may use. 1 = fully serial (the default,
// and the reference behaviour every parallel path must reproduce exactly).

// Set the search concurrency; clamps to >= 1. Creates/resizes the shared
// pool lazily. Not safe to call concurrently with a running ParallelFor.
void SetSearchJobs(int jobs);

// Current search concurrency (reads FASTT_JOBS on first use; defaults to 1).
int SearchJobs();

// Deterministic parallel loop over [0, n) using the shared search pool.
// Runs serially when jobs == 1, when n < min_parallel, or when called from
// inside a pool worker (nested parallelism). Results must be written to
// per-index slots; reduce serially afterwards for determinism.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t min_parallel = 2);

// Cumulative occupancy of the shared search pool: the live pool's counters
// plus those of pools retired by SetSearchJobs. jobs reflects the current
// setting. Exposed in --report bundles by obs::PublishSearchPoolMetrics.
PoolStats SearchPoolStats();

}  // namespace fastt
