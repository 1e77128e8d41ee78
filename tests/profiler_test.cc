// Sampling-profiler tests: the zero-cost disabled contract (no SIGPROF
// handler installed, no samples), hot-function capture and symbolization,
// innermost-span attribution, ring wraparound drop accounting and the
// fastt-prof/1 JSON `fastt report` embeds. Timing-sensitive assertions use
// generous margins: the sampler ticks on per-thread CPU time, so a loaded
// machine slows the test down but does not starve it of samples.
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <string>

#include "obs/json.h"
#include "obs/prof_export.h"
#include "obs/profiler.h"
#include "obs/tracer.h"

namespace fastt {

// External linkage + noinline so the frame survives optimization and lands
// in the dynamic symbol table (CMAKE_ENABLE_EXPORTS), where dladdr finds it.
__attribute__((noinline)) double ProfilerTestSpin(double iters) {
  volatile double acc = 0.0;
  for (double i = 0.0; i < iters; i += 1.0) acc = acc + i * 1.000001;
  return acc;
}

namespace {

void SpinFor(double seconds) {
  // The iteration count goes through a volatile: with a literal argument GCC
  // clones ProfilerTestSpin into a local .constprop copy that dladdr cannot
  // name, and the symbolization assertion below would see module+offset.
  volatile double iters = 20000.0;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < seconds) {
    ProfilerTestSpin(iters);
  }
}

bool SigprofHandlerInstalled() {
  struct sigaction sa;
  sigaction(SIGPROF, nullptr, &sa);
  if ((sa.sa_flags & SA_SIGINFO) != 0) return true;
  return sa.sa_handler != SIG_DFL && sa.sa_handler != SIG_IGN;
}

bool AnyFrameContains(const SymbolizedProfile& prof, const char* needle) {
  for (const ProfFrameRow& row : prof.frames) {
    if (row.name.find(needle) != std::string::npos) return true;
  }
  return false;
}

// The profiler is process-global; every test drains and stops behind itself.
class ProfilerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    CpuProfiler::Global().Stop();
    CpuProfiler::Global().Drain();
    Tracer::Global().Disable();
    Tracer::Global().Drain();
  }
};

TEST_F(ProfilerTest, DisabledMeansNoHandlerAndNoSamples) {
  ASSERT_FALSE(ProfilingActive());
  EXPECT_FALSE(SigprofHandlerInstalled());
  CpuProfiler::Global().Drain();  // clear anything a prior test left behind
  RegisterProfiledThread();
  SpinFor(0.05);
  const ProfileDump dump = CpuProfiler::Global().Drain();
  EXPECT_EQ(dump.samples_total, 0u);
  EXPECT_EQ(dump.samples_dropped, 0u);
}

TEST_F(ProfilerTest, CapturesAndSymbolizesTheHotFunction) {
  RegisterProfiledThread();
  CpuProfilerOptions opts;
  opts.hz = 1997;
  ASSERT_TRUE(CpuProfiler::Global().Start(opts));
  EXPECT_TRUE(ProfilingActive());
  EXPECT_TRUE(SigprofHandlerInstalled());
  // Starting again while active must fail rather than double-install.
  EXPECT_FALSE(CpuProfiler::Global().Start(opts));
  SpinFor(0.3);
  CpuProfiler::Global().Stop();
  // The whole point of Stop's SIG_IGN flush: after it returns, the process
  // is back to the default disposition with nothing pending.
  EXPECT_FALSE(SigprofHandlerInstalled());
  EXPECT_FALSE(ProfilingActive());

  const ProfileDump dump = CpuProfiler::Global().Drain();
  EXPECT_GT(dump.samples_total, 20u);
  const SymbolizedProfile prof = SymbolizeProfile(dump);
  EXPECT_TRUE(AnyFrameContains(prof, "ProfilerTestSpin"))
      << RenderProfileTable(prof, 10);
  // The sampler's own machinery must never leak into user stacks.
  EXPECT_FALSE(AnyFrameContains(prof, "FasttProfSignalHandler"));
  EXPECT_FALSE(AnyFrameContains(prof, "ProfCaptureStack"));
}

TEST_F(ProfilerTest, AttributesSamplesToInnermostSpan) {
  RegisterProfiledThread();
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  CpuProfilerOptions opts;
  opts.hz = 1997;
  ASSERT_TRUE(CpuProfiler::Global().Start(opts));
  {
    FASTT_TRACE_SPAN("prof/outer");
    {
      FASTT_TRACE_SPAN("prof/inner");
      SpinFor(0.25);
    }
  }
  CpuProfiler::Global().Stop();
  const ProfileDump dump = CpuProfiler::Global().Drain();
  ASSERT_GT(dump.samples_total, 20u);
  const SymbolizedProfile prof = SymbolizeProfile(dump);
  // Nearly all CPU time burned inside the inner span: attribution must be
  // the innermost name, and near-total.
  EXPECT_GE(static_cast<double>(prof.span_attributed),
            0.9 * static_cast<double>(prof.samples_total));
  bool inner_seen = false;
  for (const ProfStackRow& row : prof.stacks) {
    if (row.span == "prof/inner") inner_seen = true;
    EXPECT_NE(row.span, "prof/outer")
        << "sample attributed to the outer span while inner was open";
  }
  EXPECT_TRUE(inner_seen);
}

TEST_F(ProfilerTest, TinyRingWrapsAndCountsDropsLoudly) {
  RegisterProfiledThread();
  CpuProfilerOptions opts;
  opts.hz = 1997;
  opts.ring_capacity = 8;
  ASSERT_TRUE(CpuProfiler::Global().Start(opts));
  SpinFor(0.25);  // ~500 periods into 8 slots
  CpuProfiler::Global().Stop();
  const ProfileDump dump = CpuProfiler::Global().Drain();
  EXPECT_GT(dump.samples_dropped, 0u);
  for (const ProfThreadDump& td : dump.threads) {
    EXPECT_LE(td.samples.size(), 8u);
  }
  // Drops are surfaced, not silent: the JSON export and the table header
  // both carry the count.
  const SymbolizedProfile prof = SymbolizeProfile(dump);
  EXPECT_EQ(prof.samples_dropped, dump.samples_dropped);
  JsonValue doc;
  ASSERT_TRUE(JsonParse(ProfileToJson(prof, {}), &doc));
  EXPECT_EQ(doc.Find("samples")->Find("dropped")->IntOr(0),
            static_cast<int64_t>(dump.samples_dropped));
  EXPECT_NE(RenderProfileTable(prof, 5).find("dropped"), std::string::npos);
}

// ---- fastt-prof/1 ---------------------------------------------------------

TEST(ProfExport, JsonHoldsSchemaParamsCountsAndFrames) {
  SymbolizedProfile prof;
  prof.hz = 997;
  prof.duration_s = 1.0;
  prof.samples_total = 100;
  prof.span_attributed = 100;
  // Self-descending, the order SymbolizeProfile emits.
  prof.frames = {
      {"fastt::OsDpos", 70, 100},
      {"fastt::Dpos", 30, 30},
      {"main", 0, 100},
  };

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(
      JsonParse(ProfileToJson(prof, {{"model", "lenet"}}), &doc, &error))
      << error;
  EXPECT_EQ(doc.Find("schema")->StringOr(""), "fastt-prof/1");
  EXPECT_EQ(doc.Find("params")->Find("model")->StringOr(""), "lenet");
  EXPECT_EQ(doc.Find("hz")->IntOr(0), 997);
  const JsonValue* samples = doc.Find("samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_EQ(samples->Find("total")->IntOr(0), 100);
  EXPECT_EQ(samples->Find("dropped")->IntOr(-1), 0);
  EXPECT_EQ(samples->Find("span_attributed")->IntOr(0), 100);
  const JsonValue* frames = doc.Find("frames");
  ASSERT_NE(frames, nullptr);
  ASSERT_EQ(frames->items.size(), 3u);
  EXPECT_EQ(frames->items[0].Find("name")->StringOr(""), "fastt::OsDpos");
  EXPECT_EQ(frames->items[1].Find("name")->StringOr(""), "fastt::Dpos");
  EXPECT_EQ(frames->items[1].Find("self")->IntOr(0), 30);
  EXPECT_DOUBLE_EQ(frames->items[1].Find("self_pct")->NumberOr(0.0), 30.0);
  for (size_t i = 1; i < frames->items.size(); ++i) {
    EXPECT_GE(frames->items[i - 1].Find("self")->IntOr(0),
              frames->items[i].Find("self")->IntOr(0));
  }
}

}  // namespace
}  // namespace fastt
