// Turns a Tracer drain into artifacts: a Chrome-trace JSON timeline (same
// format src/sim/trace emits for the simulated schedule, so both load in
// Perfetto side by side) and an aggregate phase/self-time summary for the
// `fastt report` phase table.
#pragma once

#include <string>
#include <vector>

#include "obs/tracer.h"

namespace fastt {

// Chrome Trace Event Format: thread_name metadata per recorded thread, "X"
// complete events for spans, "i" instants, "C" counter samples. pid 1 is
// the search (the simulator exporter uses pid 0 per device, so a merged
// view keeps them apart).
std::string TraceToChromeJson(const TraceDump& dump);

// One row per distinct span name. `self_s` is `total_s` minus time covered
// by child spans on the same thread — where the clock actually ticked.
struct TracePhase {
  std::string name;
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

struct TraceThreadStats {
  int tid = 0;
  std::string name;
  double busy_s = 0.0;  // union of the thread's span intervals
};

struct TraceSummary {
  std::vector<TracePhase> phases;          // by total_s, descending
  std::vector<TraceThreadStats> threads;   // by tid
  double wall_s = 0.0;      // max span end over all threads
  double root_span_s = 0.0; // total of top-level (unparented) spans
  uint64_t span_count = 0;
  uint64_t dropped_events = 0;
  uint64_t dropped_spans = 0;
};

TraceSummary SummarizeTrace(const TraceDump& dump);

// Phase table + worker occupancy, ready to print.
std::string RenderTraceSummary(const TraceSummary& summary);

}  // namespace fastt
