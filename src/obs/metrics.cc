#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/json.h"
#include "util/memtrack.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace fastt {

// ---- Histogram ------------------------------------------------------------

size_t HistogramBucket(double value) {
  if (!(value > 0.0)) return 0;  // <=0 and NaN land in the first bucket
  if (std::isinf(value)) return kHistBuckets - 1;
  // frexp: value = m * 2^e with m in [0.5, 1). The smallest E with
  // value <= 2^E is e, except exactly at a power of two (m == 0.5) where
  // it is e-1 — that keeps 2^k in bucket (2^(k-1), 2^k] as documented.
  int e = 0;
  const double m = std::frexp(value, &e);
  const int ceil_log2 = (m == 0.5) ? e - 1 : e;
  const int i = ceil_log2 - kHistMinExp;
  if (i <= 0) return 0;
  if (i >= static_cast<int>(kHistBuckets) - 1) return kHistBuckets - 1;
  return static_cast<size_t>(i);
}

double HistogramBucketUpper(size_t i) {
  if (i + 1 >= kHistBuckets)
    return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, kHistMinExp + static_cast<int>(i));
}

void HistogramSnapshot::Record(double value) {
  if (buckets.empty()) buckets.assign(kHistBuckets, 0);
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  ++buckets[HistogramBucket(value)];
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  if (buckets.empty()) buckets.assign(kHistBuckets, 0);
  for (size_t i = 0; i < kHistBuckets && i < other.buckets.size(); ++i)
    buckets[i] += other.buckets[i];
}

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double n = static_cast<double>(buckets[i]);
    if (n <= 0.0) continue;
    if (cum + n >= target) {
      // Interpolate within the bucket, with the bucket's nominal bounds
      // tightened to the observed [min, max] so estimates never leave the
      // data's range (this also makes the estimate monotone in q).
      double lo = (i == 0) ? min : std::max(min, HistogramBucketUpper(i - 1));
      double hi = std::min(max, HistogramBucketUpper(i));
      if (!std::isfinite(hi)) hi = max;
      if (hi < lo) hi = lo;
      return std::clamp(Lerp(lo, hi, (target - cum) / n), min, max);
    }
    cum += n;
  }
  return max;
}

std::string HistogramSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("count").Int(count);
  w.Key("sum").Number(sum);
  w.Key("min").Number(count > 0 ? min : 0.0);
  w.Key("max").Number(count > 0 ? max : 0.0);
  w.Key("mean").Number(mean());
  w.Key("p50").Number(p50());
  w.Key("p90").Number(p90());
  w.Key("p99").Number(p99());
  w.Key("buckets").BeginArray();
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    w.BeginObject();
    w.Key("i").Int(static_cast<int64_t>(i));
    w.Key("le").Number(HistogramBucketUpper(i));  // null for overflow (inf)
    w.Key("n").Int(buckets[i]);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

bool HistogramFromJson(const JsonValue& v, HistogramSnapshot* out) {
  if (!v.is_object() || out == nullptr) return false;
  HistogramSnapshot h;
  const JsonValue* count = v.Find("count");
  if (count == nullptr) return false;
  h.count = count->IntOr(-1);
  if (h.count < 0) return false;
  if (const JsonValue* f = v.Find("sum")) h.sum = f->NumberOr(0.0);
  if (const JsonValue* f = v.Find("min")) h.min = f->NumberOr(0.0);
  if (const JsonValue* f = v.Find("max")) h.max = f->NumberOr(0.0);
  const JsonValue* buckets = v.Find("buckets");
  if (h.count > 0) {
    if (buckets == nullptr || !buckets->is_array()) return false;
    h.buckets.assign(kHistBuckets, 0);
    int64_t total = 0;
    for (const JsonValue& entry : buckets->items) {
      const JsonValue* idx = entry.Find("i");
      const JsonValue* n = entry.Find("n");
      if (idx == nullptr || n == nullptr) return false;
      const int64_t i = idx->IntOr(-1);
      const int64_t cnt = n->IntOr(-1);
      if (i < 0 || i >= static_cast<int64_t>(kHistBuckets) || cnt < 0)
        return false;
      h.buckets[static_cast<size_t>(i)] += cnt;
      total += cnt;
    }
    if (total != h.count) return false;
  }
  *out = std::move(h);
  return true;
}

// ---- Registry -------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::AddCounter(const std::string& name, int64_t delta) {
  MutexLock lock(mu_);
  counters_[name].fetch_add(delta, std::memory_order_relaxed);
}

int64_t MetricsRegistry::counter(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0
                               : it->second.load(std::memory_order_relaxed);
}

std::atomic<int64_t>& MetricsRegistry::CounterRef(const std::string& name) {
  MutexLock lock(mu_);
  // Node-stable: the returned atomic lives as long as the registry. Only
  // the map *structure* needs mu_; bumping the atomic afterwards doesn't.
  return counters_[name];
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  MutexLock lock(mu_);
  gauges_[name] = value;
}

double MetricsRegistry::gauge(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::RecordTimer(const std::string& name, double seconds) {
  MutexLock lock(mu_);
  Timer& t = timers_[name];
  ++t.count;
  t.total_s += seconds;
}

double MetricsRegistry::timer_total_s(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? 0.0 : it->second.total_s;
}

int64_t MetricsRegistry::timer_count(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? 0 : it->second.count;
}

MetricsRegistry::TimerHandle MetricsRegistry::TimerRef(
    const std::string& name) {
  MutexLock lock(mu_);
  TimerHandle h;
  h.cell_ = &timers_[name];  // node-stable, survives Reset()
  return h;
}

MetricsRegistry::HistogramHandle MetricsRegistry::HistogramRef(
    const std::string& name) {
  MutexLock lock(mu_);
  HistogramHandle h;
  h.cell_ = &histograms_[name];  // node-stable, survives Reset()
  return h;
}

void MetricsRegistry::Record(TimerHandle handle, double seconds) {
  MutexLock lock(mu_);
  ++handle.cell_->count;
  handle.cell_->total_s += seconds;
}

void MetricsRegistry::Record(HistogramHandle handle, double value) {
  MutexLock lock(mu_);
  handle.cell_->Record(value);
}

void MetricsRegistry::RecordHistogram(const std::string& name, double value) {
  MutexLock lock(mu_);
  histograms_[name].Record(value);
}

void MetricsRegistry::SetHistogram(const std::string& name,
                                   const HistogramSnapshot& snap) {
  MutexLock lock(mu_);
  histograms_[name] = snap;
}

HistogramSnapshot MetricsRegistry::histogram(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramSnapshot{} : it->second;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  // Zero in place — never erase. A CounterRef handed out earlier must stay
  // valid (the node-stable storage contract); clearing the maps would leave
  // it dangling.
  for (auto& [name, value] : counters_)
    value.store(0, std::memory_order_relaxed);
  for (auto& [name, value] : gauges_) value = 0.0;
  for (auto& [name, t] : timers_) t = Timer{};
  for (auto& [name, h] : histograms_) h = HistogramSnapshot{};
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  MutexLock lock(mu_);
  Snapshot snap;
  for (const auto& [name, value] : counters_)
    snap.counters[name] = value.load(std::memory_order_relaxed);
  for (const auto& [name, value] : gauges_) snap.gauges[name] = value;
  for (const auto& [name, t] : timers_)
    snap.timers[name] = {t.count, t.total_s};
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h;
  return snap;
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : counters_)
    w.Key(name).Int(value.load(std::memory_order_relaxed));
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges_) w.Key(name).Number(value);
  w.EndObject();
  w.Key("timers").BeginObject();
  for (const auto& [name, t] : timers_) {
    w.Key(name).BeginObject();
    w.Key("count").Int(t.count);
    w.Key("total_s").Number(t.total_s);
    w.Key("mean_s").Number(t.count > 0 ? t.total_s / double(t.count) : 0.0);
    w.EndObject();
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) w.Key(name).Raw(h.ToJson());
  w.EndObject();
  w.EndObject();
  return w.str();
}

void PublishSearchPoolMetrics(MetricsRegistry& registry) {
  const PoolStats stats = SearchPoolStats();
  registry.SetGauge("pool/jobs", stats.jobs);
  registry.SetGauge("pool/batches", static_cast<double>(stats.batches));
  registry.SetGauge("pool/tasks", static_cast<double>(stats.tasks));
  const double wait_s = static_cast<double>(stats.queue_wait_ns) * 1e-9;
  registry.SetGauge("pool/queue_wait_total_s", wait_s);
  registry.SetGauge("pool/queue_wait_mean_s",
                    stats.tasks > 0 ? wait_s / double(stats.tasks) : 0.0);
  for (size_t i = 0; i < stats.worker_tasks.size(); ++i) {
    registry.SetGauge(StrFormat("pool/worker%zu/tasks", i),
                      static_cast<double>(stats.worker_tasks[i]));
  }
}

namespace {

// Metric-key-safe tag name: "sim/events" → "sim_events", so the key's own
// '/' separators stay unambiguous ("mem/sim_events/live_bytes").
std::string MemTagKey(MemTag tag) {
  std::string key = MemTagName(tag);
  std::replace(key.begin(), key.end(), '/', '_');
  return key;
}

// The tracker bins allocations by log2 size class; reproject those counts
// into the registry's histogram buckets (same log2 scheme, different
// origin). min/max are bucket bounds, not exact observed sizes.
HistogramSnapshot AllocSizeHistogram(const MemTagStats& s) {
  HistogramSnapshot h;
  for (size_t k = 0; k < kMemSizeClasses; ++k) {
    const int64_t n = s.size_class_allocs[k];
    if (n == 0) continue;
    if (h.buckets.empty()) h.buckets.assign(kHistBuckets, 0);
    const double upper = std::ldexp(1.0, static_cast<int>(k));
    const double lower = k == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(k) - 1);
    h.buckets[HistogramBucket(upper)] += n;
    h.count += n;
    h.sum += upper * static_cast<double>(n);
    if (h.count == n) {
      h.min = lower;
      h.max = upper;
    } else {
      h.min = std::min(h.min, lower);
      h.max = std::max(h.max, upper);
    }
  }
  return h;
}

}  // namespace

void PublishMemMetrics(MetricsRegistry& registry) {
  MemTracker& mt = MemTracker::Global();
  if (mt.total_allocs() == 0) return;
  const std::vector<MemTagStats> snap = mt.Snapshot();
  for (size_t t = 0; t < kNumMemTags; ++t) {
    const MemTagStats& s = snap[t];
    if (s.allocs == 0 && s.frees == 0) continue;
    const std::string base = "mem/" + MemTagKey(static_cast<MemTag>(t));
    registry.SetGauge(base + "/live_bytes", static_cast<double>(s.live_bytes));
    registry.SetGauge(base + "/peak_bytes", static_cast<double>(s.peak_bytes));
    registry.SetGauge(base + "/allocs", static_cast<double>(s.allocs));
    registry.SetGauge(base + "/frees", static_cast<double>(s.frees));
    registry.SetGauge(base + "/alloc_bytes",
                      static_cast<double>(s.alloc_bytes));
    const HistogramSnapshot h = AllocSizeHistogram(s);
    if (h.count > 0) registry.SetHistogram(base + "/alloc_size_bytes", h);
  }
  registry.SetGauge("mem/total/live_bytes",
                    static_cast<double>(mt.total_live_bytes()));
  registry.SetGauge("mem/total/peak_bytes",
                    static_cast<double>(mt.total_peak_bytes()));
  registry.SetGauge("mem/total/allocs", static_cast<double>(mt.total_allocs()));
}

}  // namespace fastt
