// Tiny leveled logger: one stderr line plus one structured "log" event in
// the ambient TelemetryContext's event log per message, so diagnostics that
// used to be ad-hoc fprintf(stderr, ...) calls become per-request data a
// service can tag and return.
//
//   FASTT_LOG(Warn, "calibration drifted %.1f%% on round %d", pct, round);
//
// Levels: Error < Warn < Info < Debug. The threshold (default Warn, so
// library diagnostics stay out of CLI stdout pipelines) gates both sinks
// and comes from, in priority order: SetLogThreshold (the CLI's
// --log-level), else the FASTT_LOG_LEVEL environment variable, else the
// default. FASTT_LOG evaluates its arguments only when the level passes —
// a suppressed Debug line costs one relaxed load and a compare.
#pragma once

#include <string>

namespace fastt {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

// Stable lowercase name: "error", "warn", "info", "debug".
const char* LogLevelName(LogLevel level);

// Parses a name (as produced by LogLevelName). False on unknown input.
bool ParseLogLevel(const std::string& text, LogLevel* out);

// The active threshold (resolving FASTT_LOG_LEVEL on first use).
LogLevel LogThreshold();
void SetLogThreshold(LogLevel level);

// True when a message at `level` would be emitted.
bool LogEnabled(LogLevel level);

// Formats and emits one message: "fastt [warn] ..." on stderr and a
// {"event":"log","level":"warn","msg":...} record in CurrentEventLog().
// Prefer the FASTT_LOG macro, which checks the threshold first.
void LogMessage(LogLevel level, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace fastt

// Severity is the bare level name: FASTT_LOG(Warn, "..."), FASTT_LOG(Debug,
// "%d candidates", n).
#define FASTT_LOG(Severity, ...)                                       \
  do {                                                                 \
    if (::fastt::LogEnabled(::fastt::LogLevel::k##Severity))           \
      ::fastt::LogMessage(::fastt::LogLevel::k##Severity, __VA_ARGS__); \
  } while (0)
