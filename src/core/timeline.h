// Per-device schedule timeline with insertion-based slot search.
//
// DPOS's avail[j] is not simply "when the device finishes its last op": the
// paper allows inserting an operation into the earliest idle gap between two
// already-scheduled operations, provided the gap is long enough and
// precedence is preserved (§5.1). This structure maintains the committed
// intervals and answers that query.
//
// A device at headline scale holds thousands of intervals, and a query whose
// duration fits none of the gaps after its ready time would have to test
// every one of them. The intervals are therefore kept in chunks of at most
// kChunkSize, each summarized by its largest internal gap and its largest
// end: a query skips any chunk whose largest gap is too small in O(1), so it
// pays per chunk it passes, not per interval.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "graph/operation.h"

namespace fastt {

class DeviceTimeline {
 public:
  // Earliest start >= ready_time of a gap that fits `duration`.
  double EarliestSlot(double ready_time, double duration) const;

  // Commits an interval previously obtained from EarliestSlot.
  void Commit(double start, double duration, OpId op);

  // When the device last becomes free (end of the final interval).
  double LastEnd() const;

  // Sum of committed interval lengths.
  double BusyTime() const;

  size_t num_intervals() const;

 private:
  static constexpr size_t kChunkSize = 128;

  struct Interval {
    double start = 0.0;
    double end = 0.0;
    OpId op = kInvalidOp;
  };
  // A run of consecutive intervals. The gaps inside a chunk are the values
  // start[j] - end[j-1] for j >= 1; the gap in front of a chunk's first
  // interval belongs to no bound and is tested directly.
  struct Chunk {
    std::vector<Interval> intervals;  // non-empty, at most kChunkSize
    // The largest gap inside the chunk. EarliestSlot needs only an upper
    // bound; Commit keeps it exact.
    double max_gap = -std::numeric_limits<double>::infinity();
    // Exactly the largest end inside the chunk.
    double max_end = -std::numeric_limits<double>::infinity();
  };

  // Recomputes both summaries of `chunk` from its intervals.
  static void Summarize(Chunk& chunk);

  // Every interval, sorted by (start, end) across chunks, non-overlapping.
  std::vector<Chunk> chunks_;
  // Whether the ends are sorted too, as they are unless a commit nested an
  // interval inside another by less than kEps. EarliestSlot binary-searches
  // the ends only while they are.
  bool ends_sorted_ = true;
};

}  // namespace fastt
