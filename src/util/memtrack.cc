#include "util/memtrack.h"

#include <bit>

#include "obs/tracer.h"

namespace fastt {
namespace {

thread_local MemTag t_current_tag = MemTag::kUntagged;

// Size-class index: k such that 2^(k-1) < bytes <= 2^k, clamped.
size_t SizeClass(size_t bytes) {
  if (bytes <= 1) return 0;
  const size_t k = static_cast<size_t>(std::bit_width(bytes - 1));
  return k < kMemSizeClasses ? k : kMemSizeClasses - 1;
}

// fetch_max, for peak tracking.
void AtomicMax(std::atomic<int64_t>& target, int64_t value) {
  int64_t cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

const char* MemTagName(MemTag tag) {
  switch (tag) {
    case MemTag::kUntagged: return "untagged";
    case MemTag::kGraph: return "graph";
    case MemTag::kSimEvents: return "sim/events";
    case MemTag::kCost: return "cost";
    case MemTag::kDpos: return "dpos";
    case MemTag::kObs: return "obs";
    case MemTag::kCount: break;
  }
  return "?";
}

MemTracker& MemTracker::Global() {
  static MemTracker* tracker = new MemTracker();
  return *tracker;
}

void MemTracker::Enable() {
  Reset();
  enabled_.store(true, std::memory_order_release);
}

void MemTracker::Disable() {
  enabled_.store(false, std::memory_order_release);
}

void MemTracker::Reset() {
  for (TagCell& c : cells_) {
    c.live.store(0, std::memory_order_relaxed);
    c.peak.store(0, std::memory_order_relaxed);
    c.allocs.store(0, std::memory_order_relaxed);
    c.frees.store(0, std::memory_order_relaxed);
    c.alloc_bytes.store(0, std::memory_order_relaxed);
    for (std::atomic<int64_t>& s : c.size_class)
      s.store(0, std::memory_order_relaxed);
  }
  total_live_.store(0, std::memory_order_relaxed);
  total_peak_.store(0, std::memory_order_relaxed);
}

void MemTracker::RecordAllocSlow(MemTag tag, size_t bytes) {
  TagCell& c = cells_[static_cast<size_t>(tag)];
  const int64_t b = static_cast<int64_t>(bytes);
  const int64_t live = c.live.fetch_add(b, std::memory_order_relaxed) + b;
  AtomicMax(c.peak, live);
  c.allocs.fetch_add(1, std::memory_order_relaxed);
  c.alloc_bytes.fetch_add(b, std::memory_order_relaxed);
  c.size_class[SizeClass(bytes)].fetch_add(1, std::memory_order_relaxed);
  const int64_t total = total_live_.fetch_add(b, std::memory_order_relaxed) + b;
  AtomicMax(total_peak_, total);
}

void MemTracker::RecordFreeSlow(MemTag tag, size_t bytes) {
  TagCell& c = cells_[static_cast<size_t>(tag)];
  const int64_t b = static_cast<int64_t>(bytes);
  c.live.fetch_sub(b, std::memory_order_relaxed);
  c.frees.fetch_add(1, std::memory_order_relaxed);
  total_live_.fetch_sub(b, std::memory_order_relaxed);
}

MemTagStats MemTracker::stats(MemTag tag) const {
  const TagCell& c = cells_[static_cast<size_t>(tag)];
  MemTagStats out;
  out.live_bytes = c.live.load(std::memory_order_relaxed);
  out.peak_bytes = c.peak.load(std::memory_order_relaxed);
  out.allocs = c.allocs.load(std::memory_order_relaxed);
  out.frees = c.frees.load(std::memory_order_relaxed);
  out.alloc_bytes = c.alloc_bytes.load(std::memory_order_relaxed);
  for (size_t k = 0; k < kMemSizeClasses; ++k)
    out.size_class_allocs[k] = c.size_class[k].load(std::memory_order_relaxed);
  return out;
}

std::vector<MemTagStats> MemTracker::Snapshot() const {
  std::vector<MemTagStats> out;
  out.reserve(kNumMemTags);
  for (size_t t = 0; t < kNumMemTags; ++t)
    out.push_back(stats(static_cast<MemTag>(t)));
  return out;
}

int64_t MemTracker::total_live_bytes() const {
  return total_live_.load(std::memory_order_relaxed);
}

int64_t MemTracker::total_peak_bytes() const {
  return total_peak_.load(std::memory_order_relaxed);
}

int64_t MemTracker::total_allocs() const {
  int64_t n = 0;
  for (const TagCell& c : cells_)
    n += c.allocs.load(std::memory_order_relaxed);
  return n;
}

MemTag CurrentMemTag() { return t_current_tag; }

MemTagScope::MemTagScope(MemTag tag) : prev_(t_current_tag) {
  t_current_tag = tag;
}

MemTagScope::~MemTagScope() { t_current_tag = prev_; }

void EmitMemTraceCounters() {
  MemTracker& mt = MemTracker::Global();
  if (!mt.enabled() || !TracingActive()) return;
  // The ambient context's tracer, so a request-scoped trace carries its own
  // memory tracks.
  Tracer& tracer = CurrentTracer();
  if (!tracer.enabled()) return;
  // Counter names must be string literals (the tracer stores the pointer);
  // the tag set is fixed, so spell them out in MemTag order.
  static constexpr const char* kLiveNames[kNumMemTags] = {
      "mem/untagged/live_bytes", "mem/graph/live_bytes",
      "mem/sim_events/live_bytes", "mem/cost/live_bytes",
      "mem/dpos/live_bytes", "mem/obs/live_bytes",
  };
  for (size_t t = 0; t < kNumMemTags; ++t) {
    const MemTagStats s = mt.stats(static_cast<MemTag>(t));
    if (s.allocs == 0 && s.frees == 0) continue;  // dormant tag: no track
    tracer.Counter(kLiveNames[t], static_cast<double>(s.live_bytes));
  }
  tracer.Counter("mem/total/live_bytes",
                 static_cast<double>(mt.total_live_bytes()));
}

}  // namespace fastt
