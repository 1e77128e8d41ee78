// Tagged heap accounting: MemTracker counters, MemTagScope ambient tags,
// the TaggedAlloc STL adaptor (including allocator propagation across
// container copy/move/swap), and the end-to-end pin that building a zoo
// model and simulating it actually charges the graph and sim/events tags.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "models/model_zoo.h"
#include "sim/cluster.h"
#include "sim/exec_sim.h"
#include "util/memtrack.h"

namespace fastt {
namespace {

// The tracker is process-global; each test fixture turns it on (zeroing) and
// off so tests stay order-independent.
class MemTrackTest : public ::testing::Test {
 protected:
  void SetUp() override { MemTracker::Global().Enable(); }
  void TearDown() override { MemTracker::Global().Disable(); }
};

TEST_F(MemTrackTest, TagNamesAreStable) {
  EXPECT_STREQ(MemTagName(MemTag::kUntagged), "untagged");
  EXPECT_STREQ(MemTagName(MemTag::kGraph), "graph");
  EXPECT_STREQ(MemTagName(MemTag::kSimEvents), "sim/events");
  EXPECT_STREQ(MemTagName(MemTag::kCost), "cost");
  EXPECT_STREQ(MemTagName(MemTag::kDpos), "dpos");
  EXPECT_STREQ(MemTagName(MemTag::kObs), "obs");
}

TEST_F(MemTrackTest, ExplicitTagChargesThatTag) {
  {
    TaggedVector<int64_t> v{TaggedAlloc<int64_t>(MemTag::kCost)};
    v.resize(100);
    const MemTagStats s = MemTracker::Global().stats(MemTag::kCost);
    EXPECT_GE(s.live_bytes, 800);
    EXPECT_GE(s.allocs, 1);
    EXPECT_EQ(s.frees, 0);
  }
  // Destruction returns every byte: live goes to zero, peak stays.
  const MemTagStats s = MemTracker::Global().stats(MemTag::kCost);
  EXPECT_EQ(s.live_bytes, 0);
  EXPECT_GE(s.peak_bytes, 800);
  EXPECT_EQ(s.allocs, s.frees);
}

TEST_F(MemTrackTest, ScopeSetsAmbientTagAndRestores) {
  EXPECT_EQ(CurrentMemTag(), MemTag::kUntagged);
  {
    MemTagScope outer(MemTag::kDpos);
    EXPECT_EQ(CurrentMemTag(), MemTag::kDpos);
    {
      MemTagScope inner(MemTag::kObs);
      EXPECT_EQ(CurrentMemTag(), MemTag::kObs);
    }
    EXPECT_EQ(CurrentMemTag(), MemTag::kDpos);
    // A default-constructed tagged container inherits the ambient tag.
    TaggedVector<int> v;
    EXPECT_EQ(v.get_allocator().tag(), MemTag::kDpos);
    v.resize(64);
    EXPECT_GT(MemTracker::Global().stats(MemTag::kDpos).live_bytes, 0);
  }
  EXPECT_EQ(CurrentMemTag(), MemTag::kUntagged);
}

TEST_F(MemTrackTest, AllocatorPropagatesWithTheMemory) {
  // Move a dpos-tagged buffer into a container declared under another tag:
  // full propagation moves the allocator too, so the eventual free lands on
  // dpos and both tags settle to zero live bytes.
  TaggedVector<int64_t> dst{TaggedAlloc<int64_t>(MemTag::kObs)};
  {
    TaggedVector<int64_t> src{TaggedAlloc<int64_t>(MemTag::kDpos)};
    src.resize(256);
    dst = std::move(src);
    EXPECT_EQ(dst.get_allocator().tag(), MemTag::kDpos);
  }
  EXPECT_GT(MemTracker::Global().stats(MemTag::kDpos).live_bytes, 0);
  dst = TaggedVector<int64_t>{TaggedAlloc<int64_t>(MemTag::kObs)};
  EXPECT_EQ(MemTracker::Global().stats(MemTag::kDpos).live_bytes, 0);
  EXPECT_EQ(MemTracker::Global().stats(MemTag::kObs).live_bytes, 0);
  const MemTagStats dpos = MemTracker::Global().stats(MemTag::kDpos);
  EXPECT_EQ(dpos.allocs, dpos.frees);
}

TEST_F(MemTrackTest, PeakTracksHighWater) {
  MemTracker& mt = MemTracker::Global();
  TaggedVector<char> keep{TaggedAlloc<char>(MemTag::kCost)};
  keep.resize(1000);
  {
    TaggedVector<char> burst{TaggedAlloc<char>(MemTag::kCost)};
    burst.resize(100000);
  }
  EXPECT_GE(mt.stats(MemTag::kCost).peak_bytes, 100000);
  EXPECT_LT(mt.stats(MemTag::kCost).live_bytes, 100000);
}

TEST_F(MemTrackTest, TotalPeakIsAggregateHighWater) {
  MemTracker& mt = MemTracker::Global();
  TaggedVector<char> a{TaggedAlloc<char>(MemTag::kGraph)};
  TaggedVector<char> b{TaggedAlloc<char>(MemTag::kCost)};
  a.resize(50000);
  b.resize(50000);
  EXPECT_GE(mt.total_peak_bytes(), 100000);
  EXPECT_GE(mt.total_live_bytes(), 100000);
  EXPECT_GE(mt.total_allocs(), 2);
}

TEST_F(MemTrackTest, SizeClassesBinByLog2) {
  TaggedAlloc<char> alloc(MemTag::kObs);
  char* p = alloc.allocate(1000);  // 2^9 < 1000 <= 2^10 → class 10
  const MemTagStats s = MemTracker::Global().stats(MemTag::kObs);
  EXPECT_EQ(s.size_class_allocs[10], 1);
  alloc.deallocate(p, 1000);
}

TEST(MemTrackDisabled, RecordsNothing) {
  MemTracker& mt = MemTracker::Global();
  mt.Enable();
  mt.Disable();
  ASSERT_FALSE(mt.enabled());
  {
    TaggedVector<int64_t> v{TaggedAlloc<int64_t>(MemTag::kGraph)};
    v.resize(4096);
  }
  EXPECT_EQ(mt.stats(MemTag::kGraph).allocs, 0);
  EXPECT_EQ(mt.total_allocs(), 0);
}

TEST(MemTrackDisabled, EqualityComparesTags) {
  EXPECT_TRUE(TaggedAlloc<int>(MemTag::kGraph) ==
              TaggedAlloc<double>(MemTag::kGraph));
  EXPECT_TRUE(TaggedAlloc<int>(MemTag::kGraph) !=
              TaggedAlloc<int>(MemTag::kCost));
}

// ---- End-to-end pin on a zoo model ----------------------------------------

// Building a real model graph must charge the graph tag, and simulating it
// must charge sim/events — the two hot subsystems the telemetry exists to
// watch. This is the library-level half of the `cli_report_sections`
// check on the report's mem/graph/allocs and mem/sim_events/allocs gauges.
TEST(MemTrackZoo, GraphBuildAndSimulateChargeTheirTags) {
  MemTracker& mt = MemTracker::Global();
  mt.Enable();
  const ModelSpec& spec = FindModel("lenet");
  Graph g("lenet");
  spec.build(g, "r0", spec.strong_batch);
  const MemTagStats graph_stats = mt.stats(MemTag::kGraph);
  EXPECT_GT(graph_stats.allocs, 0);
  EXPECT_GT(graph_stats.live_bytes, 0);

  const Cluster cluster = Cluster::SingleServer(2);
  std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()), 0);
  Simulate(g, placement, cluster, SimOptions{});
  const MemTagStats sim_stats = mt.stats(MemTag::kSimEvents);
  EXPECT_GT(sim_stats.allocs, 0);
  // The simulator's event storage is all scratch: freed by the time it
  // returns.
  EXPECT_EQ(sim_stats.live_bytes, 0);
  EXPECT_GT(sim_stats.peak_bytes, 0);
  mt.Disable();
}

// A graph copy shares the op chunks: the graph tag is charged for the
// copy's edge array, name index and chunk handles, and for a chunk only when
// a write clones it. Everything comes back when the graphs go.
TEST(MemTrackZoo, GraphCopiesShareChunks) {
  MemTracker& mt = MemTracker::Global();
  mt.Enable();
  {
    const Graph g = BuildSingle(FindModel("resnet200"), 8);
    const auto slots = static_cast<uint32_t>(g.num_slots());
    const int64_t chunks =
        (slots + Graph::kChunkSlots - 1) / Graph::kChunkSlots;
    ASSERT_GE(chunks, 8);
    const int64_t built = mt.stats(MemTag::kGraph).live_bytes;
    Graph copy = g;
    const int64_t copied = mt.stats(MemTag::kGraph).live_bytes - built;
    EXPECT_GT(copied, 0);
    EXPECT_LT(copied, built / 4);
    copy.mutable_op(0).flops += 1.0;  // clones the first chunk alone
    const int64_t cloned =
        mt.stats(MemTag::kGraph).live_bytes - built - copied;
    EXPECT_GT(cloned, 0);
    EXPECT_LT(cloned, 2 * built / chunks);
    EXPECT_EQ(copy.op(0).flops, g.op(0).flops + 1.0);
  }
  EXPECT_EQ(mt.stats(MemTag::kGraph).live_bytes, 0);
  mt.Disable();
}

}  // namespace
}  // namespace fastt
