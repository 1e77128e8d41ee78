#include "core/timeline.h"

#include <algorithm>

#include "util/check.h"

namespace fastt {
namespace {
// Tolerance for float comparisons when validating insertions.
constexpr double kEps = 1e-12;
constexpr double kNoValue = -std::numeric_limits<double>::infinity();
}  // namespace

double DeviceTimeline::EarliestSlot(double ready_time,
                                    double duration) const {
  double cursor = ready_time;
  // First interval that could conflict: the first one whose end > cursor.
  // While the ends are sorted (see Commit), so are the chunks' largest ends,
  // and two binary searches find it; otherwise two scans do.
  auto chunk = chunks_.begin();
  std::vector<Interval>::const_iterator it;
  if (ends_sorted_) {
    if (chunks_.empty() || chunks_.back().max_end <= cursor)
      return cursor;  // after the last interval
    chunk = std::upper_bound(
        chunks_.begin(), chunks_.end(), cursor,
        [](double t, const Chunk& c) { return t < c.max_end; });
    it = std::upper_bound(
        chunk->intervals.begin(), chunk->intervals.end(), cursor,
        [](double t, const Interval& iv) { return t < iv.end; });
  } else {
    chunk = std::find_if(chunks_.begin(), chunks_.end(),
                         [&](const Chunk& c) { return cursor < c.max_end; });
    if (chunk == chunks_.end()) return cursor;  // after the last interval
    it = std::find_if(chunk->intervals.begin(), chunk->intervals.end(),
                      [&](const Interval& iv) { return cursor < iv.end; });
  }
  const double need = duration - kEps;
  // The linear walk tests the gap in front of each interval from `it` on,
  // then moves the cursor past it. Chunk by chunk: test the chunk's first
  // interval left to walk, then skip the rest when no gap inside the chunk
  // fits. Skipping is exact: the walk tests interval j with the cursor at or
  // past end[j-1], so each start[j] - cursor it would test is at most
  // start[j] - end[j-1] <= max_gap.
  for (;;) {
    if (it->start - cursor >= need) return cursor;  // gap fits
    if (chunk->max_gap < need) {
      cursor = std::max(cursor, chunk->max_end);
    } else {
      for (; it != chunk->intervals.end(); ++it) {
        if (it->start - cursor >= need) return cursor;  // gap fits
        cursor = std::max(cursor, it->end);
      }
    }
    if (++chunk == chunks_.end()) return cursor;  // after the last interval
    it = chunk->intervals.begin();
  }
}

void DeviceTimeline::Commit(double start, double duration, OpId op) {
  FASTT_CHECK(duration >= 0.0);
  const Interval iv{start, start + duration, op};
  if (chunks_.empty()) {
    chunks_.push_back(Chunk{{iv}, kNoValue, iv.end});
    return;
  }
  // Lexicographic (start, end) order keeps ends sorted even when zero-width
  // intervals share a start with real ones — EarliestSlot's binary searches
  // over interval ends depend on that.
  auto before = [](const Interval& a, const Interval& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.end < b.end;
  };
  // Insert in front of the first interval not before iv: it lives in the
  // first chunk whose last interval is not before iv (in the last chunk,
  // at its end, when iv goes after every interval).
  const size_t c = static_cast<size_t>(
      std::lower_bound(chunks_.begin(), chunks_.end() - 1, iv,
                       [&](const Chunk& ch, const Interval& x) {
                         return before(ch.intervals.back(), x);
                       }) -
      chunks_.begin());
  std::vector<Interval>& ivs = chunks_[c].intervals;
  const size_t at = static_cast<size_t>(
      std::lower_bound(ivs.begin(), ivs.end(), iv, before) - ivs.begin());

  // Overlap validation against the nearest positive-width neighbours, which
  // may sit in other chunks. Zero-width intervals (ops whose cost the model
  // prices at 0 — the exploration rule) occupy no time and may legitimately
  // share timestamps with real intervals, so they are skipped.
  auto positive = [](const Interval& x) { return x.end - x.start > 0.0; };
  if (duration > 0.0) {
    for (size_t pc = c, k = at;; k = chunks_[--pc].intervals.size()) {
      const std::vector<Interval>& run = chunks_[pc].intervals;
      while (k > 0 && !positive(run[k - 1])) --k;
      if (k > 0) {
        FASTT_CHECK_MSG(run[k - 1].end <= iv.start + kEps,
                        "timeline overlap with previous interval");
        break;
      }
      if (pc == 0) break;
    }
    for (size_t nc = c, k = at;; ++nc, k = 0) {
      const std::vector<Interval>& run = chunks_[nc].intervals;
      while (k < run.size() && !positive(run[k])) ++k;
      if (k < run.size()) {
        FASTT_CHECK_MSG(iv.end <= run[k].start + kEps,
                        "timeline overlap with next interval");
        break;
      }
      if (nc + 1 == chunks_.size()) break;
    }
  }

  // Ends stay sorted unless iv nests inside a neighbour, as a zero-width
  // interval placed less than kEps after the start of a longer one does.
  const Interval* prev = at > 0   ? &ivs[at - 1]
                         : c > 0 ? &chunks_[c - 1].intervals.back()
                                 : nullptr;
  if ((prev != nullptr && prev->end > iv.end) ||
      (at < ivs.size() && iv.end > ivs[at].end))
    ends_sorted_ = false;

  // Summary update. The two gaps iv creates join max_gap in O(1). The gap
  // it splits leaves the chunk: only when that was the largest one is the
  // chunk rescanned, so max_gap stays exact.
  Chunk& chunk = chunks_[c];
  const bool splits_max_gap =
      at > 0 && at < ivs.size() &&
      ivs[at].start - ivs[at - 1].end >= chunk.max_gap;
  if (at > 0)
    chunk.max_gap = std::max(chunk.max_gap, iv.start - ivs[at - 1].end);
  if (at < ivs.size())
    chunk.max_gap = std::max(chunk.max_gap, ivs[at].start - iv.end);
  chunk.max_end = std::max(chunk.max_end, iv.end);
  ivs.insert(ivs.begin() + static_cast<std::ptrdiff_t>(at), iv);
  if (ivs.size() > kChunkSize) {
    const auto half = ivs.begin() + static_cast<std::ptrdiff_t>(kChunkSize / 2);
    Chunk tail{std::vector<Interval>(half, ivs.end())};
    ivs.erase(half, ivs.end());
    Summarize(chunk);
    Summarize(tail);
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c + 1),
                   std::move(tail));
  } else if (splits_max_gap) {
    Summarize(chunk);
  }
}

void DeviceTimeline::Summarize(Chunk& chunk) {
  chunk.max_gap = kNoValue;
  chunk.max_end = kNoValue;
  const std::vector<Interval>& ivs = chunk.intervals;
  for (size_t j = 0; j < ivs.size(); ++j) {
    if (j > 0)
      chunk.max_gap = std::max(chunk.max_gap, ivs[j].start - ivs[j - 1].end);
    chunk.max_end = std::max(chunk.max_end, ivs[j].end);
  }
}

double DeviceTimeline::LastEnd() const {
  return chunks_.empty() ? 0.0 : chunks_.back().intervals.back().end;
}

size_t DeviceTimeline::num_intervals() const {
  size_t n = 0;
  for (const Chunk& chunk : chunks_) n += chunk.intervals.size();
  return n;
}

double DeviceTimeline::BusyTime() const {
  double busy = 0.0;
  for (const Chunk& chunk : chunks_)
    for (const Interval& iv : chunk.intervals) busy += iv.end - iv.start;
  return busy;
}

}  // namespace fastt
