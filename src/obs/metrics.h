// Process-wide metrics: named counters, gauges, accumulating timers and
// log-bucketed histograms with RAII scope helpers, exported as JSON.
//
// Everything FastT does — DPOS invocations, split probes, simulated runs,
// rollbacks — funnels through a handful of hot loops; the registry makes
// those loops observable without plumbing a context object through every
// call site. All operations are thread-safe (searchers and parallel probes
// bump counters concurrently); the maps use node-stable storage so handles
// returned once stay valid for the registry's lifetime, and Reset() zeroes
// values in place rather than erasing nodes, so a handle held across a
// Reset stays valid too.
//
// Timers answer "how much, in total"; histograms answer "how is it
// distributed" (p50/p90/p99) — use a histogram where a mean hides the story:
// probe latencies, allocation sizes.
//
// Typical use:
//   MetricsRegistry::Global().AddCounter("dpos/invocations");
//   { FASTT_SCOPED_TIMER("dpos/total"); ... }
//   MetricsRegistry::Global().RecordHistogram("osdpos/trial_latency_s", dt);
//   const std::string json = MetricsRegistry::Global().ToJson();
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/memtrack.h"
#include "util/sync.h"

namespace fastt {

struct JsonValue;

// ---- Histogram ------------------------------------------------------------

// Log2-bucketed distribution. Bucket 0 holds values <= 2^kHistMinExp;
// bucket i (0 < i < kHistBuckets-1) holds (2^(kHistMinExp+i-1),
// 2^(kHistMinExp+i)]; the last bucket is overflow. The range spans 2^-30
// (~1 ns latencies) through 2^48 (~256 TiB allocation sizes) so one scheme
// serves both uses.
inline constexpr int kHistMinExp = -30;
inline constexpr int kHistMaxExp = 48;
inline constexpr size_t kHistBuckets =
    static_cast<size_t>(kHistMaxExp - kHistMinExp) + 2;

// Bucket index for a value (pure; exact at power-of-two boundaries).
size_t HistogramBucket(double value);
// Inclusive upper bound of bucket `i` (+inf for the overflow bucket).
double HistogramBucketUpper(size_t i);

struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // meaningful only when count > 0
  double max = 0.0;
  std::vector<int64_t> buckets;  // kHistBuckets entries (empty when count==0)

  void Record(double value);
  // Pointwise sum of two histograms (counts add, min/max combine).
  void Merge(const HistogramSnapshot& other);

  double mean() const { return count > 0 ? sum / double(count) : 0.0; }
  // Quantile estimate with linear interpolation inside the bucket, clamped
  // to [min, max]; monotone in q. q in [0, 1].
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p90() const { return Quantile(0.90); }
  double p99() const { return Quantile(0.99); }

  // {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,"p90":..,
  //  "p99":..,"buckets":[{"i":idx,"le":upper,"n":count},...]} — only
  // non-empty buckets are listed; `le` is null for the overflow bucket.
  std::string ToJson() const;
};

// Rebuilds a snapshot from its ToJson DOM. False on malformed input.
bool HistogramFromJson(const JsonValue& v, HistogramSnapshot* out);

// ---- Registry -------------------------------------------------------------

class MetricsRegistry {
 private:
  struct Timer;  // accumulated seconds + call count; defined below

 public:
  // The process-wide registry: the sink for instrumented library code when
  // no ambient TelemetryContext is installed (see CurrentMetrics below).
  // Separate instances can be created for tests and contexts.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ---- Counters (monotonic int64) ----------------------------------------
  void AddCounter(const std::string& name, int64_t delta = 1);
  int64_t counter(const std::string& name) const;  // 0 if absent
  // Node-stable handle for hot instrumented code: bump it with relaxed
  // fetch_add and skip the name lookup. Valid for the registry's lifetime,
  // across Reset() included (Reset zeroes it in place).
  std::atomic<int64_t>& CounterRef(const std::string& name);

  // ---- Gauges (last-written double) --------------------------------------
  void SetGauge(const std::string& name, double value);
  double gauge(const std::string& name) const;  // 0 if absent

  // ---- Timers (accumulated seconds + call count) -------------------------
  void RecordTimer(const std::string& name, double seconds);
  double timer_total_s(const std::string& name) const;
  int64_t timer_count(const std::string& name) const;

  // Interned handles for hot instrumented paths: resolve the name once,
  // record through the handle with zero string construction, copying or
  // hashing afterwards. Like CounterRef, handles are node-stable for the
  // registry's lifetime, across Reset() included. A default-constructed
  // handle is null and must not be recorded through.
  class TimerHandle {
   public:
    TimerHandle() = default;

   private:
    friend class MetricsRegistry;
    Timer* cell_ = nullptr;
  };
  class HistogramHandle {
   public:
    HistogramHandle() = default;

   private:
    friend class MetricsRegistry;
    HistogramSnapshot* cell_ = nullptr;
  };
  TimerHandle TimerRef(const std::string& name);
  HistogramHandle HistogramRef(const std::string& name);
  void Record(TimerHandle handle, double seconds);
  void Record(HistogramHandle handle, double value);

  // ---- Histograms (log2 buckets, see HistogramSnapshot) ------------------
  void RecordHistogram(const std::string& name, double value);
  // Replaces the stored histogram wholesale — for republished snapshots
  // (PublishMemMetrics), the histogram analogue of SetGauge.
  void SetHistogram(const std::string& name, const HistogramSnapshot& snap);
  HistogramSnapshot histogram(const std::string& name) const;  // empty if absent

  // Zeroes every metric IN PLACE: names and node addresses survive, values
  // reset. Long-lived code holding a CounterRef keeps a valid (zeroed)
  // handle — erasing nodes here would dangle it.
  void Reset();

  // Point-in-time copy of everything, for readers that need structured
  // values rather than the JSON string.
  struct TimerSnapshot {
    int64_t count = 0;
    double total_s = 0.0;
  };
  struct Snapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, TimerSnapshot> timers;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot TakeSnapshot() const;

  // {"counters": {...}, "gauges": {...},
  //  "timers": {"name": {"count": n, "total_s": t, "mean_s": m}},
  //  "histograms": {"name": {...HistogramSnapshot::ToJson...}}}
  std::string ToJson() const;

 private:
  struct Timer {
    int64_t count = 0;
    double total_s = 0.0;
  };
  // std::map: deterministic export order and node stability under insert.
  // Node storage is charged to MemTag::kObs explicitly (not the ambient
  // tag: registries are constructed and first-touched under arbitrary
  // scopes), so memtrack can assert the interned-handle hot path performs
  // no obs-tagged allocation.
  template <typename V>
  using TaggedMap = std::map<std::string, V, std::less<std::string>,
                             TaggedAlloc<std::pair<const std::string, V>>>;
  template <typename V>
  static TaggedMap<V> MakeMap() {
    return TaggedMap<V>(
        TaggedAlloc<std::pair<const std::string, V>>(MemTag::kObs));
  }

  mutable Mutex mu_;
  // Counter values are atomic so a CounterRef can be bumped without mu_;
  // the map structure itself is only modified under mu_.
  TaggedMap<std::atomic<int64_t>> counters_ FASTT_GUARDED_BY(mu_) =
      MakeMap<std::atomic<int64_t>>();
  TaggedMap<double> gauges_ FASTT_GUARDED_BY(mu_) = MakeMap<double>();
  TaggedMap<Timer> timers_ FASTT_GUARDED_BY(mu_) = MakeMap<Timer>();
  TaggedMap<HistogramSnapshot> histograms_ FASTT_GUARDED_BY(mu_) =
      MakeMap<HistogramSnapshot>();
};

// The registry the instrumentation macros write to: the ambient
// TelemetryContext's registry if a TelemetryScope is installed on this
// thread, else the process global. Defined in obs/context.cc.
MetricsRegistry& CurrentMetrics();

// RAII timer: accumulates the scope's wall time under `name` on destruction.
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry& registry, std::string name)
      : registry_(registry),
        name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_.RecordTimer(name_,
                          std::chrono::duration<double>(elapsed).count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  MetricsRegistry& registry_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

// RAII latency sample: records the scope's wall time into a histogram —
// the distribution-preserving sibling of ScopedTimer.
class ScopedLatencyHistogram {
 public:
  ScopedLatencyHistogram(MetricsRegistry& registry, std::string name)
      : registry_(registry),
        name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatencyHistogram() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_.RecordHistogram(
        name_, std::chrono::duration<double>(elapsed).count());
  }
  ScopedLatencyHistogram(const ScopedLatencyHistogram&) = delete;
  ScopedLatencyHistogram& operator=(const ScopedLatencyHistogram&) = delete;

 private:
  MetricsRegistry& registry_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

// RAII timer through a pre-interned handle: the hot-path sibling of
// ScopedTimer — no string member, no name lookup at record time.
class ScopedTimerRef {
 public:
  ScopedTimerRef(MetricsRegistry& registry, MetricsRegistry::TimerHandle h)
      : registry_(registry),
        handle_(h),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimerRef() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_.Record(handle_,
                     std::chrono::duration<double>(elapsed).count());
  }
  ScopedTimerRef(const ScopedTimerRef&) = delete;
  ScopedTimerRef& operator=(const ScopedTimerRef&) = delete;

 private:
  MetricsRegistry& registry_;
  MetricsRegistry::TimerHandle handle_;
  std::chrono::steady_clock::time_point start_;
};

// RAII latency sample through a pre-interned handle: the hot-path sibling
// of ScopedLatencyHistogram. The per-trial OS-DPOS instrumentation uses
// this so the instrumented path performs no string allocation.
class ScopedLatencyRef {
 public:
  ScopedLatencyRef(MetricsRegistry& registry,
                   MetricsRegistry::HistogramHandle h)
      : registry_(registry),
        handle_(h),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatencyRef() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_.Record(handle_,
                     std::chrono::duration<double>(elapsed).count());
  }
  ScopedLatencyRef(const ScopedLatencyRef&) = delete;
  ScopedLatencyRef& operator=(const ScopedLatencyRef&) = delete;

 private:
  MetricsRegistry& registry_;
  MetricsRegistry::HistogramHandle handle_;
  std::chrono::steady_clock::time_point start_;
};

// Copies the search thread-pool's occupancy counters (SearchPoolStats) into
// `registry` as gauges: pool/jobs, pool/batches, pool/tasks,
// pool/queue_wait_total_s, pool/queue_wait_mean_s and pool/worker<i>/tasks.
// Gauges, not counters, so republishing before each export never
// double-counts. Call right before exporting.
void PublishSearchPoolMetrics(MetricsRegistry& registry);

// Copies the MemTracker's tagged heap accounting into `registry`: per-tag
// gauges mem/<tag>/{live_bytes,peak_bytes,allocs,frees,alloc_bytes}, the
// mem/total/* aggregates, and one mem/<tag>/alloc_size_bytes histogram per
// active tag. Gauges/SetHistogram (overwrite), so republishing is safe.
// No-op when the tracker never recorded anything.
void PublishMemMetrics(MetricsRegistry& registry);

}  // namespace fastt

#define FASTT_TIMER_CONCAT2(a, b) a##b
#define FASTT_TIMER_CONCAT(a, b) FASTT_TIMER_CONCAT2(a, b)
// Times the enclosing scope into the ambient registry under `name`.
#define FASTT_SCOPED_TIMER(name)                         \
  ::fastt::ScopedTimer FASTT_TIMER_CONCAT(fastt_scoped_timer_, __LINE__)( \
      ::fastt::CurrentMetrics(), (name))
// Records the enclosing scope's wall time into a latency histogram.
#define FASTT_SCOPED_LATENCY_HISTOGRAM(name)                 \
  ::fastt::ScopedLatencyHistogram FASTT_TIMER_CONCAT(        \
      fastt_scoped_latency_, __LINE__)(                      \
      ::fastt::CurrentMetrics(), (name))
