// Observability subsystem: metrics registry, JSON writer/validator, event
// log, schedule analysis invariants, trace export, and the workflow's
// round-by-round history.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "analysis/verifier.h"
#include "core/strategy_calculator.h"
#include "models/model_zoo.h"
#include "obs/context.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/schedule_analysis.h"
#include "obs/trace_export.h"
#include "sim/trace.h"
#include "util/memtrack.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

// Same deterministic 1 ms compute op the simulator tests use.
Operation ComputeOp(const std::string& name, double millis = 1.0,
                    int64_t out_bytes = 4096) {
  Operation op;
  op.name = name;
  op.type = OpType::kMatMul;
  op.output_shape = TensorShape{out_bytes / 4};
  op.flops = (millis * 1e-3 - 4e-6) * 15.7e12 * 0.70;
  op.bytes_touched = 0;
  return op;
}

// ---- JSON -----------------------------------------------------------------

TEST(Json, QuoteEscapes) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(JsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, NumberHandlesNonFinite) {
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  // NaN/Inf have no JSON spelling; emitting null keeps documents parseable
  // by strict consumers instead of smuggling in a fake zero.
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
  EXPECT_EQ(JsonNumber(-1.0 / 0.0), "null");
}

TEST(Json, NonFiniteGaugeStillValidatesAsJson) {
  JsonWriter w;
  w.BeginObject();
  w.Key("nan_gauge").Number(std::nan(""));
  w.Key("ok").Number(2.0);
  w.EndObject();
  EXPECT_TRUE(JsonValidate(w.str())) << w.str();
  JsonValue root;
  ASSERT_TRUE(JsonParse(w.str(), &root));
  ASSERT_NE(root.Find("nan_gauge"), nullptr);
  EXPECT_TRUE(root.Find("nan_gauge")->is_null());
  EXPECT_EQ(root.Find("ok")->NumberOr(0.0), 2.0);
}

TEST(Json, ParseBuildsDom) {
  const std::string doc =
      "{\"s\": \"a\\u0041\\n\", \"n\": -1.5e2, \"b\": true, \"nul\": null,"
      " \"arr\": [1, \"two\", {\"k\": 3}], \"obj\": {\"x\": 1}}";
  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(doc, &root, &error)) << error;
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Find("s")->StringOr(""), "aA\n");
  EXPECT_EQ(root.Find("n")->NumberOr(0.0), -150.0);
  EXPECT_TRUE(root.Find("b")->bool_v);
  EXPECT_TRUE(root.Find("nul")->is_null());
  const JsonValue* arr = root.Find("arr");
  ASSERT_TRUE(arr != nullptr && arr->is_array());
  ASSERT_EQ(arr->items.size(), 3u);
  EXPECT_EQ(arr->items[0].NumberOr(0.0), 1.0);
  EXPECT_EQ(arr->items[1].StringOr(""), "two");
  EXPECT_EQ(arr->items[2].Find("k")->NumberOr(0.0), 3.0);
  EXPECT_EQ(root.Find("obj")->Find("x")->NumberOr(0.0), 1.0);
  EXPECT_EQ(root.Find("missing"), nullptr);

  EXPECT_FALSE(JsonParse("{\"trailing\": 1,}", &root, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(JsonParse("[1, 2", &root));
}

TEST(Json, WriterProducesValidNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("makespan").Number(0.012);
  w.Key("name").String("a\"b");
  w.Key("devices").BeginArray();
  w.BeginObject();
  w.Key("id").Int(0);
  w.Key("oom").Bool(false);
  w.EndObject();
  w.Int(7);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"makespan\":0.012,\"name\":\"a\\\"b\","
            "\"devices\":[{\"id\":0,\"oom\":false},7]}");
  EXPECT_TRUE(JsonValidate(w.str()));
}

TEST(Json, Int64RoundTripBeyondDoublePrecision) {
  // Doubles only cover integers up to 2^53; the DOM must carry larger int64
  // values through a write -> parse round trip unchanged.
  const int64_t interesting[] = {
      0,
      -1,
      (int64_t{1} << 53) - 1,
      (int64_t{1} << 53) + 1,  // first value a double cannot represent
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min(),
  };
  for (const int64_t v : interesting) {
    JsonWriter w;
    w.BeginObject();
    w.Key("v").Int(v);
    w.EndObject();
    JsonValue root;
    std::string error;
    ASSERT_TRUE(JsonParse(w.str(), &root, &error)) << error;
    const JsonValue* f = root.Find("v");
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(f->is_int) << v;
    EXPECT_EQ(f->IntOr(0), v) << v;
  }
  // Property: random int64 values survive the round trip exactly.
  std::mt19937_64 rng(20260805);
  for (int i = 0; i < 500; ++i) {
    const int64_t v = static_cast<int64_t>(rng());
    JsonWriter w;
    w.BeginArray();
    w.Int(v);
    w.EndArray();
    JsonValue root;
    ASSERT_TRUE(JsonParse(w.str(), &root));
    ASSERT_EQ(root.items.size(), 1u);
    EXPECT_EQ(root.items[0].IntOr(0), v);
  }
}

TEST(Json, NonIntegralNumbersStayDoubleOnly) {
  JsonValue root;
  ASSERT_TRUE(JsonParse("[1.5, 1e3, 42, -0.0, 99999999999999999999999]",
                        &root));
  ASSERT_EQ(root.items.size(), 5u);
  EXPECT_FALSE(root.items[0].is_int);
  EXPECT_DOUBLE_EQ(root.items[0].NumberOr(0.0), 1.5);
  EXPECT_EQ(root.items[0].IntOr(-7), 1);  // truncated double
  EXPECT_FALSE(root.items[1].is_int);     // exponent form
  EXPECT_DOUBLE_EQ(root.items[1].NumberOr(0.0), 1000.0);
  EXPECT_TRUE(root.items[2].is_int);
  EXPECT_EQ(root.items[2].IntOr(0), 42);
  EXPECT_FALSE(root.items[3].is_int);  // "-0.0" is not integral
  EXPECT_EQ(root.items[3].IntOr(-7), 0);
  // Out of int64 range: parses, but only as an (approximate) double.
  EXPECT_FALSE(root.items[4].is_int);
  EXPECT_GT(root.items[4].NumberOr(0.0), 9e22);
}

TEST(Json, ValidateAcceptsAndRejects) {
  EXPECT_TRUE(JsonValidate("{\"a\": [1, 2.5e-3, \"x\", null, true]}"));
  std::string error;
  EXPECT_FALSE(JsonValidate("{\"a\": }", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(JsonValidate("[1, 2,]"));
  EXPECT_FALSE(JsonValidate("[1] trailing"));
  EXPECT_FALSE(JsonValidate(""));
  EXPECT_TRUE(JsonlValidate("{\"a\": 1}\n{\"b\": 2}\n"));
  EXPECT_FALSE(JsonlValidate("{\"a\": 1}\nnot json\n"));
}

// ---- MetricsRegistry ------------------------------------------------------

TEST(Metrics, CountersGaugesTimers) {
  MetricsRegistry r;
  r.AddCounter("x");
  r.AddCounter("x", 4);
  EXPECT_EQ(r.counter("x"), 5);
  EXPECT_EQ(r.counter("absent"), 0);
  r.SetGauge("g", 2.5);
  r.SetGauge("g", 3.5);
  EXPECT_DOUBLE_EQ(r.gauge("g"), 3.5);
  r.RecordTimer("t", 0.25);
  r.RecordTimer("t", 0.75);
  EXPECT_EQ(r.timer_count("t"), 2);
  EXPECT_DOUBLE_EQ(r.timer_total_s("t"), 1.0);
  r.Reset();
  EXPECT_EQ(r.counter("x"), 0);
  EXPECT_EQ(r.timer_count("t"), 0);
}

TEST(Metrics, ConcurrentCounterBumpsAreExact) {
  MetricsRegistry r;
  constexpr int kThreads = 8;
  constexpr int kBumps = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&r] {
      for (int j = 0; j < kBumps; ++j) r.AddCounter("shared");
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(r.counter("shared"), int64_t{kThreads} * kBumps);
}

TEST(Metrics, ScopedTimerNests) {
  MetricsRegistry r;
  {
    ScopedTimer outer(r, "outer");
    {
      ScopedTimer inner(r, "inner");
      // Busy-wait a little so inner has measurable duration.
      volatile double sink = 0;
      for (int i = 0; i < 100000; ++i) sink = sink + i;
      (void)sink;
    }
  }
  EXPECT_EQ(r.timer_count("outer"), 1);
  EXPECT_EQ(r.timer_count("inner"), 1);
  // The outer scope encloses the inner one.
  EXPECT_GE(r.timer_total_s("outer"), r.timer_total_s("inner"));
}

TEST(Metrics, JsonExportIsValid) {
  MetricsRegistry r;
  r.AddCounter("dpos/invocations", 3);
  r.SetGauge("calculator/last_iteration_s", 0.08);
  r.RecordTimer("sim/simulate", 0.002);
  EXPECT_TRUE(JsonValidate(r.ToJson()));
  EXPECT_NE(r.ToJson().find("\"dpos/invocations\":3"), std::string::npos);
}

TEST(Metrics, PublishSearchPoolMetricsExportsGauges) {
  SetSearchJobs(2);
  std::atomic<int> ran{0};
  for (int batch = 0; batch < 8; ++batch) {
    ParallelFor(64, [&](size_t) { ran.fetch_add(1); });
  }
  SetSearchJobs(1);  // retires the pool; stats must survive the retirement
  EXPECT_EQ(ran.load(), 8 * 64);

  const PoolStats stats = SearchPoolStats();
  EXPECT_GE(stats.batches, 8u);
  // `tasks` counts worker-side executions only (the caller steals chunks
  // too), so the exact count is timing-dependent — but the per-worker
  // breakdown must always reconcile with the total.
  uint64_t per_worker = 0;
  for (const uint64_t n : stats.worker_tasks) per_worker += n;
  EXPECT_EQ(per_worker, stats.tasks);

  MetricsRegistry r;
  PublishSearchPoolMetrics(r);
  const std::string json = r.ToJson();
  EXPECT_TRUE(JsonValidate(json));
  EXPECT_NE(json.find("\"pool/tasks\""), std::string::npos);
  EXPECT_NE(json.find("\"pool/batches\""), std::string::npos);
  EXPECT_NE(json.find("\"pool/queue_wait_total_s\""), std::string::npos);
  // Re-publishing overwrites the gauges rather than double-counting.
  PublishSearchPoolMetrics(r);
  JsonValue root;
  ASSERT_TRUE(JsonParse(r.ToJson(), &root));
  const JsonValue* gauges = root.Find("gauges");
  ASSERT_TRUE(gauges != nullptr && gauges->is_object());
  EXPECT_GE(gauges->Find("pool/batches")->NumberOr(0.0), 8.0);
}

TEST(Metrics, ResetZeroesInPlaceAndCounterRefSurvives) {
  MetricsRegistry r;
  // The node-stable storage contract: a handle taken before Reset() must
  // stay valid (and zeroed) after it.
  std::atomic<int64_t>& hot = r.CounterRef("hot/path");
  hot.fetch_add(41, std::memory_order_relaxed);
  r.AddCounter("hot/path");  // name lookup and handle hit the same node
  EXPECT_EQ(r.counter("hot/path"), 42);
  r.SetGauge("g", 1.0);
  r.RecordHistogram("h", 2.0);
  r.Reset();
  EXPECT_EQ(r.counter("hot/path"), 0);
  EXPECT_DOUBLE_EQ(r.gauge("g"), 0.0);
  EXPECT_EQ(r.histogram("h").count, 0);
  // The pre-Reset handle still addresses the live node.
  hot.fetch_add(7, std::memory_order_relaxed);
  EXPECT_EQ(r.counter("hot/path"), 7);
  EXPECT_EQ(&r.CounterRef("hot/path"), &hot);
}

// ---- Histograms -----------------------------------------------------------

TEST(Histogram, BucketBoundariesAreExactPowersOfTwo) {
  // 2^k lands in the bucket whose inclusive upper bound is 2^k; one ulp
  // above moves to the next bucket.
  for (int k : {-10, -1, 0, 1, 10, 20}) {
    const double v = std::ldexp(1.0, k);
    const size_t b = HistogramBucket(v);
    EXPECT_DOUBLE_EQ(HistogramBucketUpper(b), v) << "k=" << k;
    EXPECT_EQ(HistogramBucket(std::nextafter(
                  v, std::numeric_limits<double>::infinity())),
              b + 1)
        << "k=" << k;
  }
  // Degenerate inputs stay in range.
  EXPECT_EQ(HistogramBucket(0.0), 0u);
  EXPECT_EQ(HistogramBucket(-5.0), 0u);
  EXPECT_EQ(HistogramBucket(std::numeric_limits<double>::infinity()),
            kHistBuckets - 1);
}

TEST(Histogram, RecordTracksCountSumMinMax) {
  HistogramSnapshot h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // empty histogram
  h.Record(1.0);
  h.Record(4.0);
  h.Record(16.0);
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 21.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 16.0);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0);
}

TEST(Histogram, QuantilesAreMonotoneAndClampedToRange) {
  HistogramSnapshot h;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(1e-6, 1e3);
  for (int i = 0; i < 1000; ++i) h.Record(dist(rng));
  double prev = h.Quantile(0.0);
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, h.min);
    EXPECT_LE(v, h.max);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), h.min);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.max);
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
}

TEST(Histogram, MergeMatchesRecordingEverythingIntoOne) {
  HistogramSnapshot a, b, all;
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> dist(0.5, 256.0);
  for (int i = 0; i < 200; ++i) {
    const double v = dist(rng);
    (i % 2 == 0 ? a : b).Record(v);
    all.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count, all.count);
  EXPECT_DOUBLE_EQ(a.sum, all.sum);
  EXPECT_DOUBLE_EQ(a.min, all.min);
  EXPECT_DOUBLE_EQ(a.max, all.max);
  EXPECT_EQ(a.buckets, all.buckets);
  // Merging into an empty histogram is a copy.
  HistogramSnapshot empty;
  empty.Merge(all);
  EXPECT_EQ(empty.count, all.count);
}

TEST(Histogram, JsonRoundTripsThroughJsonParse) {
  HistogramSnapshot h;
  for (double v : {0.001, 0.5, 1.0, 3.0, 1024.0, 1e9}) h.Record(v);
  const std::string json = h.ToJson();
  EXPECT_TRUE(JsonValidate(json));
  JsonValue dom;
  ASSERT_TRUE(JsonParse(json, &dom));
  HistogramSnapshot back;
  ASSERT_TRUE(HistogramFromJson(dom, &back));
  EXPECT_EQ(back.count, h.count);
  // JsonNumber prints %.9g, so doubles survive to ~9 significant digits.
  EXPECT_NEAR(back.sum, h.sum, 1e-8 * h.sum);
  EXPECT_DOUBLE_EQ(back.min, h.min);
  EXPECT_DOUBLE_EQ(back.max, h.max);
  EXPECT_EQ(back.buckets, h.buckets);
  EXPECT_NEAR(back.p99(), h.p99(), 1e-8 * h.p99());

  // Malformed inputs are rejected, not misread.
  JsonValue bad;
  ASSERT_TRUE(JsonParse("{\"count\":2,\"buckets\":[]}", &bad));
  HistogramSnapshot out;
  EXPECT_FALSE(HistogramFromJson(bad, &out));  // bucket sum != count
  ASSERT_TRUE(JsonParse("{\"sum\":1.0}", &bad));
  EXPECT_FALSE(HistogramFromJson(bad, &out));  // no count at all
}

TEST(Histogram, RegistryRecordsAndExports) {
  MetricsRegistry r;
  r.RecordHistogram("probe/latency_s", 0.001);
  r.RecordHistogram("probe/latency_s", 0.004);
  EXPECT_EQ(r.histogram("probe/latency_s").count, 2);
  EXPECT_EQ(r.histogram("absent").count, 0);
  const std::string json = r.ToJson();
  EXPECT_TRUE(JsonValidate(json));
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"probe/latency_s\""), std::string::npos);
  {
    ScopedLatencyHistogram scope(r, "scoped/latency_s");
    volatile double sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
    (void)sink;
  }
  EXPECT_EQ(r.histogram("scoped/latency_s").count, 1);
  EXPECT_GT(r.histogram("scoped/latency_s").max, 0.0);
}

// ---- PublishMemMetrics ----------------------------------------------------

TEST(Metrics, PublishMemMetricsExportsTaggedHeapStats) {
  MemTracker& mt = MemTracker::Global();
  mt.Enable();
  {
    TaggedVector<int64_t> v{TaggedAlloc<int64_t>(MemTag::kGraph)};
    v.resize(1000);
    MetricsRegistry r;
    PublishMemMetrics(r);
    const std::string json = r.ToJson();
    EXPECT_TRUE(JsonValidate(json));
    EXPECT_NE(json.find("\"mem/graph/live_bytes\""), std::string::npos);
    EXPECT_NE(json.find("\"mem/graph/alloc_size_bytes\""), std::string::npos);
    EXPECT_NE(json.find("\"mem/total/peak_bytes\""), std::string::npos);
    EXPECT_GE(r.gauge("mem/graph/live_bytes"), 8000.0);
    EXPECT_GE(r.gauge("mem/total/allocs"), 1.0);
    const HistogramSnapshot sizes = r.histogram("mem/graph/alloc_size_bytes");
    EXPECT_GE(sizes.count, 1);
    // Republishing overwrites rather than double-counting.
    PublishMemMetrics(r);
    EXPECT_EQ(r.histogram("mem/graph/alloc_size_bytes").count, sizes.count);
  }
  mt.Disable();
  // A never-active tracker publishes nothing.
  mt.Reset();
  MetricsRegistry empty;
  PublishMemMetrics(empty);
  EXPECT_EQ(empty.ToJson().find("\"mem/"), std::string::npos);
}

// ---- EventLog -------------------------------------------------------------

TEST(EventLog, EmitsValidJsonlWithSeqAndType) {
  EventLog log;
  log.Emit("bootstrap").Str("start_strategy", "data parallel").Int("ops", 42);
  log.Emit("round")
      .Int("round", 1)
      .Number("predicted_s", 0.080)
      .Bool("committed", true);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(JsonlValidate(log.ToJsonl()));
  EXPECT_NE(log.line(0).find("\"event\":\"bootstrap\""), std::string::npos);
  EXPECT_NE(log.line(0).find("\"seq\":0"), std::string::npos);
  EXPECT_NE(log.line(1).find("\"seq\":1"), std::string::npos);
  EXPECT_NE(log.line(1).find("\"committed\":true"), std::string::npos);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(EventLog, ConcurrentEmittersLoseNothing) {
  EventLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Emit("spam").Int("thread", t).Int("i", i);
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_EQ(log.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_TRUE(JsonlValidate(log.ToJsonl()));
  // Every seq in [0, N) appears exactly once, even if lines landed out of
  // seq order under the race.
  std::vector<bool> seen(kThreads * kPerThread, false);
  for (size_t i = 0; i < log.size(); ++i) {
    const std::string line = log.line(i);
    JsonValue obj;
    ASSERT_TRUE(JsonParse(line, &obj)) << line;
    const JsonValue* seq = obj.Find("seq");
    ASSERT_NE(seq, nullptr) << line;
    const auto s = static_cast<size_t>(seq->NumberOr(-1.0));
    ASSERT_LT(s, seen.size());
    EXPECT_FALSE(seen[s]) << "duplicate seq " << s;
    seen[s] = true;
  }
}

// ---- Schedule analysis ----------------------------------------------------

// Hand-built 2-device graph: a chain a -> b crossing devices (so the path
// has a transfer) plus an independent op c keeping device 0 busy.
struct TwoDeviceFixture {
  Graph g;
  Cluster cluster = Cluster::SingleServer(2);
  SimResult sim;
  TwoDeviceFixture() {
    const OpId a = g.AddOp(ComputeOp("a", 2.0, 9 * 1000 * 1000));
    const OpId b = g.AddOp(ComputeOp("b", 3.0));
    const OpId c = g.AddOp(ComputeOp("c", 1.0));
    g.AddEdge(a, b);
    (void)c;
    SimOptions options;
    options.record_memory_timeline = true;
    sim = Simulate(g, {0, 1, 0}, cluster, options);
  }
};

TEST(ScheduleAnalysis, CriticalPathSegmentsSumToMakespan) {
  TwoDeviceFixture f;
  const ScheduleAnalysis a = AnalyzeSchedule(f.g, f.sim, f.cluster);
  EXPECT_GT(a.makespan, 0.0);
  ASSERT_FALSE(a.critical_path.empty());
  double sum = 0.0;
  for (const CriticalPathSegment& s : a.critical_path) {
    EXPECT_GE(s.duration(), -1e-12);
    sum += s.duration();
  }
  EXPECT_NEAR(sum, a.makespan, 1e-9);
  // The path is contiguous: each segment starts where the previous ended,
  // beginning at t = 0 and ending at the makespan.
  EXPECT_NEAR(a.critical_path.front().start, 0.0, 1e-12);
  EXPECT_NEAR(a.critical_path.back().finish, a.makespan, 1e-12);
  for (size_t i = 1; i < a.critical_path.size(); ++i)
    EXPECT_NEAR(a.critical_path[i].start, a.critical_path[i - 1].finish,
                1e-12);
  // Totals decompose the makespan by segment kind.
  EXPECT_NEAR(a.cp_op_s + a.cp_transfer_s + a.cp_wait_s, a.makespan, 1e-9);
  // The cross-device chain a -> b must put a transfer on the path.
  EXPECT_GT(a.cp_transfer_s, 0.0);
}

TEST(ScheduleAnalysis, UtilizationPlusBubbleIsOnePerDevice) {
  TwoDeviceFixture f;
  const ScheduleAnalysis a = AnalyzeSchedule(f.g, f.sim, f.cluster);
  ASSERT_EQ(a.devices.size(), 2u);
  for (const DeviceBreakdown& d : a.devices) {
    EXPECT_NEAR(d.utilization + d.bubble_fraction, 1.0, 1e-9);
    EXPECT_NEAR(d.busy_s + d.idle_s, a.makespan, 1e-9);
    EXPECT_GE(d.longest_bubble_s, 0.0);
  }
  EXPECT_EQ(a.devices[0].num_ops, 2);  // a and c
  EXPECT_EQ(a.devices[1].num_ops, 1);  // b
  // Device 1 idles while a computes and the tensor moves: it has a bubble.
  EXPECT_GT(a.devices[1].bubble_fraction, 0.0);
  EXPECT_GE(a.devices[1].num_bubbles, 1);
}

TEST(ScheduleAnalysis, RankingsAndLinks) {
  TwoDeviceFixture f;
  const ScheduleAnalysis a = AnalyzeSchedule(f.g, f.sim, f.cluster);
  ASSERT_FALSE(a.top_ops.empty());
  // b (3 ms) dominates the path.
  EXPECT_EQ(a.top_ops[0].name, "b");
  for (size_t i = 1; i < a.top_ops.size(); ++i)
    EXPECT_GE(a.top_ops[i - 1].seconds, a.top_ops[i].seconds);
  ASSERT_EQ(a.top_transfers.size(), 1u);
  EXPECT_EQ(a.top_transfers[0].name, "a");
  EXPECT_EQ(a.top_transfers[0].bytes, 9 * 1000 * 1000);
  ASSERT_EQ(a.links.size(), 1u);
  EXPECT_EQ(a.links[0].src, 0);
  EXPECT_EQ(a.links[0].dst, 1);
  EXPECT_EQ(a.links[0].num_transfers, 1);
  EXPECT_GT(a.links[0].achieved_bandwidth, 0.0);
}

TEST(ScheduleAnalysis, RenderAndJsonExport) {
  TwoDeviceFixture f;
  const ScheduleAnalysis a = AnalyzeSchedule(f.g, f.sim, f.cluster);
  const std::string text = RenderScheduleAnalysis(f.g, a);
  EXPECT_NE(text.find("Per-device utilization"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  const std::string json = ScheduleAnalysisToJson(f.g, a);
  std::string error;
  EXPECT_TRUE(JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"devices\""), std::string::npos);
}

// ---- Trace export ---------------------------------------------------------

TEST(Trace, ChromeTraceIsValidJsonWithFlowAndCounters) {
  TwoDeviceFixture f;
  const std::string trace = ExportChromeTrace(f.g, f.sim);
  std::string error;
  EXPECT_TRUE(JsonValidate(trace, &error)) << error;
  // Flow arrow for the a -> b tensor and memory counter samples.
  EXPECT_NE(trace.find("\"cat\": \"flow\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(trace.find("GPU 0 memory"), std::string::npos);
}

TEST(Trace, MemoryTimelineOnlyWhenRequested) {
  Graph g;
  g.AddOp(ComputeOp("a", 1.0));
  const Cluster c = Cluster::SingleServer(1);
  EXPECT_TRUE(Simulate(g, {0}, c).memory_timeline.empty());
  SimOptions options;
  options.record_memory_timeline = true;
  const SimResult r = Simulate(g, {0}, c, options);
  ASSERT_EQ(r.memory_timeline.size(), 1u);
  EXPECT_FALSE(r.memory_timeline[0].empty());
}

// ---- Workflow round history ----------------------------------------------

TEST(Workflow, RoundHistoryAndEventsRecorded) {
  const ModelSpec& spec = FindModel("lenet");
  CalculatorOptions options;
  options.max_rounds = 3;
  const auto ft = RunFastT(spec.build, spec.name, 64, Scaling::kStrong,
                           Cluster::SingleServer(2), options);
  ASSERT_EQ(static_cast<int>(ft.round_history.size()), ft.rounds);
  int commits = 0;
  for (const RoundSummary& r : ft.round_history) {
    EXPECT_GT(r.predicted_s, 0.0);
    EXPECT_GT(r.measured_s, 0.0);
    EXPECT_GE(r.ops_replaced, 0);
    if (r.committed) ++commits;
  }
  // Every round activates its candidate; the uncommitted ones roll back.
  EXPECT_EQ(ft.activations, ft.rounds);
  EXPECT_EQ(commits, ft.activations - ft.rollbacks);
  // The event log narrates the run and is valid JSONL.
  EXPECT_GT(ft.events.size(), 0u);
  EXPECT_TRUE(JsonlValidate(ft.events.ToJsonl()));
  EXPECT_NE(ft.events.ToJsonl().find("\"event\":\"final\""),
            std::string::npos);
}

TEST(Workflow, VerifierNarratesEveryRound) {
  const ModelSpec& spec = FindModel("lenet");
  CalculatorOptions options;
  options.max_rounds = 2;
  options.verify_full = true;  // exercise the full rule set in-workflow
  const auto ft = RunFastT(spec.build, spec.name, 64, Scaling::kStrong,
                           Cluster::SingleServer(2), options);
  // One "verify" event per pre-training round, all clean on real searches.
  const std::string jsonl = ft.events.ToJsonl();
  EXPECT_TRUE(JsonlValidate(jsonl));
  size_t verify_events = 0;
  for (size_t pos = 0;
       (pos = jsonl.find("\"event\":\"verify\"", pos)) != std::string::npos;
       ++pos)
    ++verify_events;
  EXPECT_EQ(verify_events, static_cast<size_t>(ft.rounds));
  EXPECT_EQ(jsonl.find("\"event\":\"verify_reject\""), std::string::npos);
  for (const RoundSummary& r : ft.round_history) {
    EXPECT_EQ(r.verify_errors, 0);
    EXPECT_TRUE(r.verify_reject_rule.empty());
  }
}

TEST(Json, VerifierDiagnosticsDocumentValidates) {
  Graph g("tiny");
  Operation op;
  op.name = "a";
  g.AddOp(op);
  Strategy strategy;  // empty placement/order: several rules fire
  const VerifyResult result =
      VerifyStrategy(g, strategy, Cluster::SingleServer(1));
  ASSERT_FALSE(result.ok());
  const std::string json = DiagnosticsToJson(g, result);
  std::string error;
  EXPECT_TRUE(JsonValidate(json, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(JsonParse(json, &doc, &error)) << error;
  EXPECT_EQ(doc.Find("errors")->IntOr(-1), result.errors);
  EXPECT_EQ(doc.Find("diagnostics")->items.size(),
            result.diagnostics.size());
}

// ---- TablePrinter alignment ----------------------------------------------

// ---- Leveled logger ------------------------------------------------------
// Each TEST runs in its own ctest process (gtest_discover_tests), so the
// process-global threshold mutations here cannot leak between tests.

TEST(Log, ParseLevelRoundTrip) {
  for (LogLevel level : {LogLevel::kError, LogLevel::kWarn, LogLevel::kInfo,
                         LogLevel::kDebug}) {
    LogLevel parsed = LogLevel::kError;
    EXPECT_TRUE(ParseLogLevel(LogLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  LogLevel parsed = LogLevel::kError;
  EXPECT_FALSE(ParseLogLevel("chatty", &parsed));
  EXPECT_FALSE(ParseLogLevel("", &parsed));
}

TEST(Log, MessagesLandInAmbientEventLog) {
  ::unsetenv("FASTT_LOG_LEVEL");
  // Untouched default: warn. An explicit threshold replaces it.
  ASSERT_EQ(LogThreshold(), LogLevel::kWarn);
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  SetLogThreshold(LogLevel::kError);
  EXPECT_EQ(LogThreshold(), LogLevel::kError);
  EXPECT_FALSE(LogEnabled(LogLevel::kWarn));

  SetLogThreshold(LogLevel::kInfo);
  TelemetryContext context;
  {
    TelemetryScope scope(context);
    FASTT_LOG(Info, "round %d drifted %.1f%%", 3, 12.5);
    FASTT_LOG(Debug, "suppressed below the threshold");
  }
  ASSERT_EQ(context.events().size(), 1u);
  JsonValue event;
  std::string error;
  ASSERT_TRUE(JsonParse(context.events().line(0), &event, &error)) << error;
  const JsonValue* level = event.Find("level");
  ASSERT_NE(level, nullptr);
  EXPECT_EQ(level->StringOr(""), "info");
  const JsonValue* msg = event.Find("msg");
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->StringOr(""), "round 3 drifted 12.5%");
}

// ---- fastt-report/1 bundles ----------------------------------------------

TEST(RunReport, BundleCarriesSchemaParamsMetricsEventsAndSections) {
  MetricsRegistry registry;
  registry.AddCounter("dpos/invocations", 2);
  EventLog events;
  events.Emit("round").Int("round", 1);
  TraceSummary summary;
  summary.phases.push_back(TracePhase{"search/total", 1, 0.5, 0.25});

  RunReport report("run", "lenet");
  report.SetParam("gpus", 4);
  report.SetParam("batch", 256);
  report.SetMetrics(registry);
  report.SetEvents(events);
  report.SetTraceSummary(summary);
  report.AddSection("calibration", "{\"rounds\":[]}");

  const std::string json = report.ToJson();
  EXPECT_TRUE(JsonValidate(json)) << json;
  JsonValue doc;
  ASSERT_TRUE(JsonParse(json, &doc));
  const JsonValue* schema = doc.Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->StringOr(""), "fastt-report/1");
  const JsonValue* params = doc.Find("params");
  ASSERT_NE(params, nullptr);
  EXPECT_EQ(params->Find("gpus")->IntOr(0), 4);
  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("counters")->Find("dpos/invocations")->IntOr(0), 2);
  const JsonValue* ev = doc.Find("events");
  ASSERT_NE(ev, nullptr);
  ASSERT_TRUE(ev->is_array());
  EXPECT_EQ(ev->items.size(), 1u);
  const JsonValue* phases = doc.Find("trace_phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->items.size(), 1u);
  EXPECT_EQ(phases->items[0].Find("name")->StringOr(""), "search/total");
  const JsonValue* calibration = doc.Find("calibration");
  ASSERT_NE(calibration, nullptr);
  EXPECT_TRUE(calibration->is_object());
}

TEST(RunReport, SurfacesDroppedTraceCountsAndBuildProvenance) {
  TraceSummary summary;
  summary.phases.push_back(TracePhase{"search/total", 1, 0.5, 0.25});
  summary.dropped_events = 14;
  summary.dropped_spans = 2;
  RunReport report("run", "lenet");
  report.SetTraceSummary(summary);

  JsonValue doc;
  ASSERT_TRUE(JsonParse(report.ToJson(), &doc));
  // Ring wraparound is data loss; the bundle must say so, not just shrink.
  const JsonValue* dropped = doc.Find("trace_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->Find("events")->IntOr(0), 14);
  EXPECT_EQ(dropped->Find("spans")->IntOr(0), 2);
  // Every report states which build produced it.
  const JsonValue* build = doc.Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(build->Find("git_sha")->StringOr("").empty());
  EXPECT_FALSE(build->Find("compiler")->StringOr("").empty());
  EXPECT_FALSE(build->Find("build_type")->StringOr("").empty());
}

TEST(RunReport, OptionalSectionsAreOmittedWhenUnset) {
  RunReport bare("models", "");
  JsonValue doc;
  ASSERT_TRUE(JsonParse(bare.ToJson(), &doc));
  EXPECT_NE(doc.Find("schema"), nullptr);
  EXPECT_NE(doc.Find("params"), nullptr);
  EXPECT_EQ(doc.Find("metrics"), nullptr);
  EXPECT_EQ(doc.Find("events"), nullptr);
  EXPECT_EQ(doc.Find("trace_phases"), nullptr);
}

// ---- Interned metric handles ---------------------------------------------

// The instrumented DPOS/OS-DPOS hot paths record latencies through
// preformatted handles; the contract is zero obs-tagged heap allocations
// per Record. (Interning itself may allocate — that happens once, before
// the measured window.)
TEST(Metrics, HandleRecordDoesNotAllocate) {
  MetricsRegistry registry;
  const MetricsRegistry::TimerHandle timer = registry.TimerRef("dpos/total");
  const MetricsRegistry::HistogramHandle hist =
      registry.HistogramRef("dpos/latency_s");

  MemTracker& mem = MemTracker::Global();
  mem.Enable();
  const int64_t before = mem.stats(MemTag::kObs).allocs;
  for (int i = 0; i < 1000; ++i) {
    registry.Record(timer, 1e-6);
    registry.Record(hist, 1e-6);
    ScopedTimerRef scoped(registry, timer);
  }
  const int64_t after = mem.stats(MemTag::kObs).allocs;
  mem.Disable();
  EXPECT_EQ(after - before, 0);

  // The handles really did land the data.
  const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.timers.at("dpos/total").count, 2000);
  EXPECT_EQ(snap.histograms.at("dpos/latency_s").count, 1000);
}

// Handles stay valid across Reset(): the registry's storage is node-stable
// and Reset zeroes cells instead of erasing them.
TEST(Metrics, HandlesSurviveReset) {
  MetricsRegistry registry;
  const MetricsRegistry::TimerHandle timer = registry.TimerRef("t");
  registry.Record(timer, 1.0);
  registry.Reset();
  registry.Record(timer, 2.0);
  const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.timers.at("t").count, 1);
  EXPECT_DOUBLE_EQ(snap.timers.at("t").total_s, 2.0);
}

TEST(Table, NumericColumnsRightAlign) {
  TablePrinter t({"name", "value", "note"});
  t.AddRow({"alpha", "3.5 ms", "ok"});
  t.AddRow({"b", "112.0 ms", "longer note"});
  t.AddRow({"c", "-", "x"});
  const std::string out = t.Render();
  // Numeric column pads on the left; text columns pad on the right.
  EXPECT_NE(out.find("|   3.5 ms |"), std::string::npos);
  EXPECT_NE(out.find("| 112.0 ms |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("| ok          |"), std::string::npos);
}

TEST(Table, MixedColumnStaysLeftAligned) {
  TablePrinter t({"col"});
  t.AddRow({"12.5"});
  t.AddRow({"word"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| 12.5 |"), std::string::npos);
  EXPECT_NE(out.find("| word |"), std::string::npos);
}

}  // namespace
}  // namespace fastt
