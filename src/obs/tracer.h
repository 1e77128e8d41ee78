// In-process flight recorder for the host-side strategy search.
//
// The metrics registry answers "how much, in total"; the tracer answers
// "when, on which thread" — where the search's own wall-clock goes: DPOS
// runs and their phases, OS-DPOS split trials on pool workers, cost-table
// builds, worker occupancy and queue wait. Recording is a per-thread ring
// buffer of fixed capacity (oldest events overwritten; a drain reports how
// many were lost), written without locks: each buffer has exactly one
// writer — its owning thread — and a release-store on the head index
// publishes slots to the drainer. Events carry a `const char*` name
// (string literals only: no allocation, no copying on the hot path) and a
// timestamp relative to the epoch set by Enable().
//
// Cost when disabled: every macro boils down to one relaxed atomic load and
// a branch — unmeasurable next to the work being traced — and defining
// FASTT_NO_TRACING compiles the macros out entirely. Cost when enabled: a
// clock read plus one ring slot write per event.
//
// Draining (Tracer::Drain) pairs begin/end events into completed spans and
// requires quiescence: no instrumented code may be emitting concurrently.
// In practice every drain site runs after the traced search returned and
// the pool workers are idle (idle workers emit nothing). Ends whose begins
// were overwritten by ring wraparound, and begins never closed, are dropped
// and counted rather than emitted, so a drain is always well-formed.
//
// Tracers are instances, not a singleton: every TelemetryContext
// (obs/context.h) owns one, and the macros resolve theirs through the
// ambient slot (obs/ambient.h), falling back to Tracer::Global(). The
// disabled fast path stays one relaxed load: TracingActive() counts enabled
// tracers process-wide, and only when it is nonzero do the macros resolve
// the ambient slot and check that tracer's own flag.
//
// This header is dependency-free (library fastt_tracer) so the thread pool
// in fastt_util can be instrumented without a util <-> obs cycle; Chrome
// JSON export and summarization live in obs/trace_export.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/ambient.h"
#include "obs/profiler.h"
#include "util/sync.h"

namespace fastt {

// One completed (paired) span, relative to the trace epoch.
struct TraceSpan {
  const char* name = nullptr;
  int tid = 0;
  double start_s = 0.0;
  double dur_s = 0.0;
  double end_s() const { return start_s + dur_s; }
};

// One instant or counter-sample event.
struct TracePoint {
  const char* name = nullptr;
  int tid = 0;
  double t_s = 0.0;
  double value = 0.0;
  bool is_counter = false;  // false: instant marker; true: counter sample
};

struct TraceThreadInfo {
  int tid = 0;
  std::string name;
};

// Everything a drain recovered from the ring buffers.
struct TraceDump {
  std::vector<TraceThreadInfo> threads;  // only threads that recorded events
  std::vector<TraceSpan> spans;          // per thread, in start order
  std::vector<TracePoint> points;
  uint64_t dropped_events = 0;  // overwritten by ring wraparound
  uint64_t dropped_spans = 0;   // unpairable begins/ends
  double drained_at_s = 0.0;    // drain time relative to the epoch
};

class Tracer {
 public:
  // Process-wide instance: the macros' sink when no ambient context is
  // installed (see CurrentTracer below).
  static Tracer& Global();

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Starts (or restarts) recording: resets every registered ring buffer and
  // re-bases the epoch clock at "now". Requires quiescence.
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Ring capacity, in events, applied to every buffer (existing buffers are
  // reset). Requires quiescence; intended for tests and the CLI.
  void SetRingCapacity(size_t events);

  // Names the calling thread's row in the drained timeline ("worker 3").
  void SetCurrentThreadName(const std::string& name);

  // Hot-path emitters. `name` must outlive the tracer (string literal).
  void BeginSpan(const char* name) { Emit(kBegin, name, 0.0); }
  void EndSpan(const char* name) { Emit(kEnd, name, 0.0); }
  void Instant(const char* name, double value) { Emit(kInstant, name, value); }
  void Counter(const char* name, double value) { Emit(kCounter, name, value); }

  // Collects every buffer's events, pairs spans, and resets the buffers so
  // a subsequent drain starts empty. Requires quiescence.
  TraceDump Drain();

 private:
  enum Kind : uint8_t { kBegin, kEnd, kInstant, kCounter };

  struct Event {
    const char* name = nullptr;
    double t_s = 0.0;
    double value = 0.0;
    Kind kind = kBegin;
  };

  // Single-writer ring. The owning thread writes ring[head % capacity] then
  // release-stores head+1; the drainer acquire-loads head and reads only
  // published slots.
  struct ThreadBuffer {
    explicit ThreadBuffer(size_t capacity) : ring(capacity) {}
    int tid = 0;
    std::string name;
    std::vector<Event> ring;
    std::atomic<uint64_t> head{0};
  };

  void Emit(Kind kind, const char* name, double value);
  ThreadBuffer* CurrentBuffer();
  double NowSinceEpoch() const;

  // Never-reused instance id: the per-thread buffer cache keys on it, so an
  // entry for a destroyed tracer can't be mistaken for a new tracer that
  // happens to land at the same address.
  const uint64_t id_;
  std::atomic<bool> enabled_{false};
  mutable Mutex mu_;
  // The registry of per-thread buffers is guarded; each buffer's ring is
  // single-writer/lock-free (see the header comment) once registered.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ FASTT_GUARDED_BY(mu_);
  size_t capacity_ FASTT_GUARDED_BY(mu_) = 1 << 16;
  // steady_clock nanoseconds at Enable(). Atomic, not guarded: the hot-path
  // Emit() reads it without the registry lock; Enable()'s release-store on
  // enabled_ publishes the new epoch before any emitter can observe
  // enabled() == true.
  std::atomic<int64_t> epoch_ns_{0};
};

// True when at least one Tracer instance anywhere in the process is
// enabled. One relaxed load: this is the only cost the macros pay when
// tracing is off, same as the old single-global design.
bool TracingActive();

// The tracer the macros write to: the ambient context's tracer if a
// TelemetryScope is installed on this thread, else the process global.
inline Tracer& CurrentTracer() {
  Tracer* ambient = CurrentAmbientTelemetry().tracer;
  return ambient != nullptr ? *ambient : Tracer::Global();
}

// RAII span. Resolves and pins the ambient tracer at entry so a span opened
// while tracing is on always closes on the same sink (Disable mid-span
// leaves at worst one unpaired end, which the drain drops). Every opened
// span is also pushed on the per-thread ProfSpanStack (obs/profiler.h) so
// the sampling profiler can attribute each CPU sample to the innermost
// live span.
class TraceScope {
 public:
  explicit TraceScope(const char* name) {
    if (!TracingActive()) return;
    Tracer& t = CurrentTracer();
    if (t.enabled()) {
      tracer_ = &t;
      name_ = name;
      t.BeginSpan(name);
      ProfSpanPush(name);
    }
  }
  ~TraceScope() {
    if (tracer_ != nullptr) {
      ProfSpanPop();
      tracer_->EndSpan(name_);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
};

}  // namespace fastt

#define FASTT_TRACE_CONCAT2(a, b) a##b
#define FASTT_TRACE_CONCAT(a, b) FASTT_TRACE_CONCAT2(a, b)

#ifndef FASTT_NO_TRACING
// Times the enclosing scope as a span named `name` (string literal).
#define FASTT_TRACE_SPAN(name)                              \
  ::fastt::TraceScope FASTT_TRACE_CONCAT(fastt_trace_scope_, \
                                         __LINE__)(name)
// One instant marker / counter sample with a numeric value.
#define FASTT_TRACE_INSTANT(name, value)                            \
  do {                                                              \
    if (::fastt::TracingActive()) {                                 \
      ::fastt::Tracer& fastt_trace_t = ::fastt::CurrentTracer();    \
      if (fastt_trace_t.enabled())                                  \
        fastt_trace_t.Instant((name), static_cast<double>(value));  \
    }                                                               \
  } while (0)
#define FASTT_TRACE_COUNTER(name, value)                            \
  do {                                                              \
    if (::fastt::TracingActive()) {                                 \
      ::fastt::Tracer& fastt_trace_t = ::fastt::CurrentTracer();    \
      if (fastt_trace_t.enabled())                                  \
        fastt_trace_t.Counter((name), static_cast<double>(value));  \
    }                                                               \
  } while (0)
#else
#define FASTT_TRACE_SPAN(name) ((void)0)
#define FASTT_TRACE_INSTANT(name, value) ((void)0)
#define FASTT_TRACE_COUNTER(name, value) ((void)0)
#endif
