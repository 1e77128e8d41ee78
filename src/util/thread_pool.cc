#include "util/thread_pool.h"

#include <chrono>
#include <cstdlib>
#include <memory>

#include "obs/ambient.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "util/strings.h"

namespace fastt {
namespace {

thread_local bool t_in_worker = false;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : worker_tasks_(static_cast<size_t>(num_threads > 0 ? num_threads : 0)) {
  workers_.reserve(worker_tasks_.size());
  for (int i = 0; i < num_threads; ++i)
    workers_.emplace_back([this, i] { WorkerLoop(i); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop(int worker_index) {
  t_in_worker = true;
  const std::string thread_name = StrFormat("search worker %d", worker_index);
  Tracer::Global().SetCurrentThreadName(thread_name);
  // Workers opt into CPU sampling for their whole lifetime: if a profile is
  // running their timers arm immediately, otherwise the slot sits idle
  // until a Start() arms it.
  RegisterProfiledThread();
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      cv_.Wait(mu_, [this]() FASTT_REQUIRES(mu_) {
        return stop_ || !tasks_.empty();
      });
      if (stop_ && tasks_.empty()) {
        UnregisterProfiledThread();
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    const int64_t waited = NowNs() - task.enqueue_ns;
    queue_wait_ns_.fetch_add(static_cast<uint64_t>(waited > 0 ? waited : 0),
                             std::memory_order_relaxed);
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    worker_tasks_[static_cast<size_t>(worker_index)].fetch_add(
        1, std::memory_order_relaxed);
    {
      FASTT_TRACE_SPAN("pool/task");
      task.fn();
    }
  }
}

bool ThreadPool::InWorker() { return t_in_worker; }

PoolStats ThreadPool::Stats() const {
  PoolStats stats;
  stats.jobs = num_threads() + 1;
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.tasks = tasks_run_.load(std::memory_order_relaxed);
  stats.queue_wait_ns = queue_wait_ns_.load(std::memory_order_relaxed);
  stats.worker_tasks.reserve(worker_tasks_.size());
  for (const auto& w : worker_tasks_)
    stats.worker_tasks.push_back(w.load(std::memory_order_relaxed));
  return stats;
}

void ThreadPool::Run(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t threads = workers_.size();
  if (threads == 0 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  FASTT_TRACE_SPAN("pool/run");
  batches_.fetch_add(1, std::memory_order_relaxed);
  // Static contiguous partition: chunk c covers [c*n/k, (c+1)*n/k). The
  // partition depends only on (n, chunks), never on thread timing, so every
  // index runs exactly once for any worker count.
  struct Batch {
    size_t n = 0;
    size_t chunks = 0;
    const std::function<void(size_t)>* fn = nullptr;
    // The submitting thread's telemetry bindings, installed around every
    // chunk a worker claims so request-scoped metrics/traces/events land in
    // the submitter's TelemetryContext — the same propagation discipline as
    // the ambient MemTag. Pointers stay valid because Run() doesn't return
    // until every chunk is done and the installing scope outlives Run.
    AmbientTelemetry ambient;
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> done{0};
    Mutex mu;
    CondVar cv;
  };
  // Shared ownership: a worker that loses the claim race may still touch the
  // batch counters after Run has returned.
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->chunks = std::min(n, threads + 1);  // +1: the caller participates
  batch->fn = &fn;  // outlives every claimed chunk (Run waits for them)
  batch->ambient = CurrentAmbientTelemetry();
  auto run_chunks = [](const std::shared_ptr<Batch>& b) {
    const AmbientTelemetry prev = ExchangeAmbientTelemetry(b->ambient);
    for (;;) {
      const size_t c = b->next_chunk.fetch_add(1);
      if (c >= b->chunks) break;
      const size_t begin = c * b->n / b->chunks;
      const size_t end = (c + 1) * b->n / b->chunks;
      for (size_t i = begin; i < end; ++i) (*b->fn)(i);
      if (b->done.fetch_add(1) + 1 == b->chunks) {
        MutexLock lock(b->mu);
        b->cv.NotifyAll();
      }
    }
    ExchangeAmbientTelemetry(prev);
  };
  {
    const int64_t enqueue_ns = NowNs();
    MutexLock lock(mu_);
    for (size_t t = 0; t < std::min(threads, batch->chunks); ++t)
      tasks_.push({[batch, run_chunks] { run_chunks(batch); }, enqueue_ns});
  }
  cv_.NotifyAll();
  run_chunks(batch);  // the calling thread helps
  MutexLock lock(batch->mu);
  batch->cv.Wait(batch->mu,
                 [&] { return batch->done.load() == batch->chunks; });
}

namespace {

struct SearchPoolState {
  Mutex mu;
  int jobs FASTT_GUARDED_BY(mu) = 0;  // 0 = uninitialized
  std::unique_ptr<ThreadPool> pool FASTT_GUARDED_BY(mu);
  // Counters from pools replaced by SetSearchJobs.
  PoolStats retired FASTT_GUARDED_BY(mu);
};

SearchPoolState& PoolState() {
  static SearchPoolState* state = new SearchPoolState();
  return *state;
}

int InitialJobs() {
  if (const char* env = std::getenv("FASTT_JOBS"); env != nullptr) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  return 1;
}

void MergeStats(const PoolStats& from, PoolStats* into) {
  into->batches += from.batches;
  into->tasks += from.tasks;
  into->queue_wait_ns += from.queue_wait_ns;
  if (into->worker_tasks.size() < from.worker_tasks.size())
    into->worker_tasks.resize(from.worker_tasks.size(), 0);
  for (size_t i = 0; i < from.worker_tasks.size(); ++i)
    into->worker_tasks[i] += from.worker_tasks[i];
}

}  // namespace

void SetSearchJobs(int jobs) {
  if (jobs < 1) jobs = 1;
  SearchPoolState& state = PoolState();
  MutexLock lock(state.mu);
  if (state.jobs == jobs) return;
  state.jobs = jobs;
  if (state.pool) MergeStats(state.pool->Stats(), &state.retired);
  state.pool.reset();  // join old workers before spawning new ones
  if (jobs > 1) state.pool = std::make_unique<ThreadPool>(jobs - 1);
}

int SearchJobs() {
  SearchPoolState& state = PoolState();
  MutexLock lock(state.mu);
  if (state.jobs == 0) {
    state.jobs = InitialJobs();
    if (state.jobs > 1)
      state.pool = std::make_unique<ThreadPool>(state.jobs - 1);
  }
  return state.jobs;
}

PoolStats SearchPoolStats() {
  SearchPoolState& state = PoolState();
  MutexLock lock(state.mu);
  PoolStats stats = state.retired;
  if (state.pool) MergeStats(state.pool->Stats(), &stats);
  stats.jobs = state.jobs == 0 ? 1 : state.jobs;
  return stats;
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t min_parallel) {
  if (n == 0) return;
  ThreadPool* pool = nullptr;
  if (n >= min_parallel && !ThreadPool::InWorker()) {
    SearchPoolState& state = PoolState();
    MutexLock lock(state.mu);
    if (state.jobs == 0) {
      state.jobs = InitialJobs();
      if (state.jobs > 1)
        state.pool = std::make_unique<ThreadPool>(state.jobs - 1);
    }
    pool = state.pool.get();
  }
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->Run(n, fn);
}

}  // namespace fastt
