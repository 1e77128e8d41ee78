// Output surfaces for the sampling CPU profiler (obs/profiler.h), both
// used by `fastt report`:
//
//   fastt-prof/1 JSON — the report bundle's "profile" section:
//       {"schema": "fastt-prof/1",
//        "build": {...},                         // obs/build_info.h
//        "params": {"model": "lenet", ...},
//        "hz": 997, "duration_s": 1.0,
//        "samples": {"total": N, "dropped": N, "span_attributed": N},
//        "stacks": [{"frames": ["main", ..., "leaf"], "span": "dpos/run",
//                    "count": N}],                // root-first, count-desc
//        "frames": [{"name": ..., "self": N, "total": N,
//                    "self_pct": .., "total_pct": ..}]}  // self-desc
//
//   top-N table — the human rendering `fastt report` prints.
#pragma once

#include <map>
#include <string>

#include "obs/profiler.h"

namespace fastt {

// Serializes a symbolized profile. `params` describes the run (command,
// model...) the way bench reports do.
std::string ProfileToJson(const SymbolizedProfile& prof,
                          const std::map<std::string, std::string>& params);

// Human top-N self/total table (top_n <= 0 means all frames).
std::string RenderProfileTable(const SymbolizedProfile& prof, int top_n = 15);

}  // namespace fastt
