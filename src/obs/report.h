// fastt-report/1: one JSON document bundling everything a run's telemetry
// produced — metrics, event log, trace phase self-times, and any
// command-specific sections (analysis, calibration, verifier summary, heap
// rollup, CPU profile) — so a whole run travels as a single artifact.
//
// Every CLI command emits one via `--report <file>`; `fastt report` runs
// the full instrumented workflow inside a fresh TelemetryContext and
// writes the richest bundle. Layout:
//   {"schema": "fastt-report/1",
//    "command": "run", "model": "lenet",
//    "params": {"gpus": 2, ...},
//    "metrics": {...MetricsRegistry::ToJson...},     // if set
//    "events": [...],                                // if set
//    "trace_phases": [{"name","count","total_s","self_s"}, ...],  // if set
//    "<section>": <raw JSON>, ...}                   // AddSection, in order
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace fastt {

class EventLog;
class MetricsRegistry;
struct TraceSummary;

class RunReport {
 public:
  RunReport(std::string command, std::string model);

  // Scalar run parameters under "params" (gpus, batch, jobs...).
  void SetParam(const std::string& key, int64_t value);

  void SetMetrics(const MetricsRegistry& registry);
  void SetEvents(const EventLog& events);
  void SetTraceSummary(const TraceSummary& summary);

  // Appends a command-specific section. `raw_json` must be a complete JSON
  // value; sections appear in insertion order after the standard ones.
  void AddSection(const std::string& key, const std::string& raw_json);

  std::string ToJson() const;
  // Writes ToJson to `path`. Returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::string command_;
  std::string model_;
  std::vector<std::pair<std::string, int64_t>> params_;
  std::string metrics_json_;       // empty: omitted
  std::string events_json_;        // "[" ... "]" array; empty: omitted
  std::string trace_phases_json_;  // array; empty: omitted
  std::string trace_dropped_json_; // {"events","spans"}; empty: omitted
  std::vector<std::pair<std::string, std::string>> sections_;
};

}  // namespace fastt
