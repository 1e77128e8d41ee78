#include "obs/log.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "obs/context.h"

namespace fastt {
namespace {

// -1: not yet resolved from the environment.
std::atomic<int> g_threshold{-1};

int ResolveThreshold() {
  int level = g_threshold.load(std::memory_order_relaxed);
  if (level >= 0) return level;
  LogLevel parsed = LogLevel::kWarn;
  if (const char* env = std::getenv("FASTT_LOG_LEVEL")) {
    ParseLogLevel(env, &parsed);  // unknown value: keep default
  }
  // First resolver wins; a concurrent SetLogThreshold wins over us.
  int expected = -1;
  g_threshold.compare_exchange_strong(expected, static_cast<int>(parsed),
                                      std::memory_order_relaxed);
  return g_threshold.load(std::memory_order_relaxed);
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kError:
      return "error";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kDebug:
      return "debug";
  }
  return "unknown";
}

bool ParseLogLevel(const std::string& text, LogLevel* out) {
  for (LogLevel level : {LogLevel::kError, LogLevel::kWarn, LogLevel::kInfo,
                         LogLevel::kDebug}) {
    if (text == LogLevelName(level)) {
      *out = level;
      return true;
    }
  }
  return false;
}

LogLevel LogThreshold() { return static_cast<LogLevel>(ResolveThreshold()); }

void SetLogThreshold(LogLevel level) {
  g_threshold.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) <= ResolveThreshold();
}

void LogMessage(LogLevel level, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string msg;
  if (n > 0) {
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), format, args_copy);
    msg.assign(buf.data(), static_cast<size_t>(n));
  }
  va_end(args_copy);
  std::fprintf(stderr, "fastt [%s] %s\n", LogLevelName(level), msg.c_str());
  CurrentEventLog().Emit("log").Str("level", LogLevelName(level)).Str("msg",
                                                                      msg);
}

}  // namespace fastt
