// Sampling CPU profiler for the host-side strategy search.
//
// The tracer (obs/tracer.h) answers "where did the wall time go, among the
// spans we remembered to instrument"; this profiler answers the complement:
// "which functions actually burned the CPU", including everything outside
// hand-placed spans. It is a classic POSIX SIGPROF sampler: every registered
// thread owns a per-thread CPU-time timer (timer_create on the thread's CPU
// clock, SIGEV_THREAD_ID delivery) that fires at CpuProfilerOptions::hz
// and interrupts the thread wherever it happens to be; the signal handler
// captures the call stack and appends it to a lock-free single-writer ring
// buffer mirroring the tracer's design (release-store on the head publishes
// slots, overflow overwrites the oldest sample and is counted, never
// silent).
//
// Signal-safety rules the handler obeys (see DESIGN.md §16):
//   - no allocation, no locks, no stdio, no clock: it writes one
//     preallocated ring slot and walks its own stack's frame pointers;
//   - errno is saved and restored;
//   - the stack walk prefers the frame-pointer chain (validated against the
//     registered thread's stack bounds, cached at registration time from
//     pthread_getattr_np) and falls back to backtrace(), which Start() has
//     already warmed up so its one-time dlopen/malloc happens outside any
//     handler;
//   - everything else — symbolization (dladdr + __cxa_demangle), stack
//     folding, aggregation — happens post-hoc in SymbolizeProfile(), in
//     normal context.
//
// Sample→span join: TraceScope maintains a per-thread stack of the names of
// currently-open tracer spans (ProfSpanPush/ProfSpanPop below — a fixed
// array plus an atomic depth, safe to read from a signal handler running on
// the same thread). Each sample records the innermost open span, so samples
// and spans tell one story: "62% of the cycles under dpos/run were in
// RankU" needs no guessing.
//
// Cost when disabled: zero. No signal handler is installed, no timers
// exist, ProfilingActive() is one relaxed load, and the TraceScope hook is
// two relaxed stores only when tracing itself is already on.
//
// This header is dependency-free (library fastt_tracer) so the thread pool
// in fastt_util can register its workers without a util <-> obs cycle; the
// JSON export and the top-N table `fastt report` prints live in
// obs/prof_export.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fastt {

// ---- Sample→span join (used by TraceScope; see tracer.h) -------------------

// Fixed-depth stack of open tracer-span names on this thread. Single
// writer (the thread itself, via TraceScope); single async reader (the
// SIGPROF handler interrupting that same thread), so plain stores ordered
// by the atomic depth are enough: push writes the name slot before
// publishing the new depth, pop retracts the depth before the name goes
// stale.
struct ProfSpanStack {
  static constexpr int kCap = 64;
  const char* names[kCap];
  std::atomic<int> depth{0};
};

extern thread_local ProfSpanStack t_prof_span_stack;

inline void ProfSpanPush(const char* name) {
  ProfSpanStack& s = t_prof_span_stack;
  int d = s.depth.load(std::memory_order_relaxed);
  if (d < ProfSpanStack::kCap) s.names[d] = name;
  s.depth.store(d + 1, std::memory_order_release);
}

inline void ProfSpanPop() {
  ProfSpanStack& s = t_prof_span_stack;
  int d = s.depth.load(std::memory_order_relaxed);
  if (d > 0) s.depth.store(d - 1, std::memory_order_release);
}

// The innermost open span on the calling thread (nullptr when none, or when
// nesting overflowed kCap — better unattributed than misattributed).
inline const char* ProfCurrentSpan() {
  ProfSpanStack& s = t_prof_span_stack;
  int d = s.depth.load(std::memory_order_acquire);
  if (d <= 0 || d > ProfSpanStack::kCap) return nullptr;
  return s.names[d - 1];
}

// ---- Raw samples -----------------------------------------------------------

inline constexpr int kProfMaxFrames = 48;

// One captured sample: program-counter chain (leaf first) plus the innermost
// open tracer span at interrupt time. POD on purpose — written from the
// signal handler into a preallocated ring slot.
struct ProfRawSample {
  int depth = 0;              // frames captured (0 = capture failed)
  const char* span = nullptr; // innermost open tracer span, if any
  void* frames[kProfMaxFrames];
};

struct ProfThreadDump {
  uint64_t dropped = 0;  // overwritten by ring wraparound
  std::vector<ProfRawSample> samples;
};

// Everything a drain recovered from the per-thread rings.
struct ProfileDump {
  int hz = 0;
  double duration_s = 0.0;
  uint64_t samples_total = 0;
  uint64_t samples_dropped = 0;
  std::vector<ProfThreadDump> threads;
};

// ---- The profiler ----------------------------------------------------------

struct CpuProfilerOptions {
  int hz = 997;                    // sampling rate (prime: avoids beating
                                   // with periodic work at round rates)
  size_t ring_capacity = 1 << 14;  // samples per thread ring
};

// Process-wide sampling profiler. A single instance: SIGPROF has one
// process-wide disposition, so unlike tracers there is nothing to scope.
// Threads opt in via RegisterProfiledThread (the pool does this for its
// workers); Start() arms one CPU-clock timer per registered thread and
// installs the handler, Stop() disarms and restores the previous
// disposition. Start/Stop/Drain require quiescence with each other (CLI
// and tests call them from one thread); registration is safe anytime.
class CpuProfiler {
 public:
  static CpuProfiler& Global();

  CpuProfiler();
  ~CpuProfiler();
  CpuProfiler(const CpuProfiler&) = delete;
  CpuProfiler& operator=(const CpuProfiler&) = delete;

  // Installs the SIGPROF handler and arms a timer for every registered
  // thread (threads registering later are armed on registration). Resets
  // all rings. Returns false if timers could not be created.
  bool Start(const CpuProfilerOptions& opts);
  void Stop();
  bool active() const { return active_.load(std::memory_order_relaxed); }

  // Collects every ring's samples. Requires the profiler stopped. Samples
  // from threads that have since exited are retained.
  ProfileDump Drain();

 private:
  std::atomic<bool> active_{false};
};

// Opts the calling thread into profiling: allocates its ring + stack-bounds
// slot and, if a profile is running, arms its timer. Idempotent per thread.
void RegisterProfiledThread();
// Disarms and detaches the calling thread's slot (samples already recorded
// survive until the next Drain). Called by exiting pool workers.
void UnregisterProfiledThread();

// True while a profile is running. One relaxed load.
bool ProfilingActive();

// ---- Post-hoc symbolization ------------------------------------------------

// One unique stack, root first, already stripped of profiler-internal
// frames and symbolized.
struct ProfStackRow {
  std::vector<std::string> frames;  // root ... leaf
  std::string span;                 // "" when unattributed
  uint64_t count = 0;
};

// Flat per-frame totals: `self` counts samples where the frame is the leaf,
// `total` counts samples where it appears anywhere (once per sample, so
// recursion does not double-count).
struct ProfFrameRow {
  std::string name;
  uint64_t self = 0;
  uint64_t total = 0;
};

struct SymbolizedProfile {
  int hz = 0;
  double duration_s = 0.0;
  uint64_t samples_total = 0;
  uint64_t samples_dropped = 0;
  uint64_t span_attributed = 0;            // samples with a non-null span
  std::vector<ProfStackRow> stacks;        // count-descending
  std::vector<ProfFrameRow> frames;        // self-descending
};

// Resolves every PC through dladdr + demangling, strips the handler's own
// frames, folds identical stacks, and aggregates per-frame self/total.
SymbolizedProfile SymbolizeProfile(const ProfileDump& dump);

}  // namespace fastt
