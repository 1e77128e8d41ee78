#include "obs/blackbox.h"

#include <csignal>
#include <cstdlib>
#include <exception>
#include <fstream>

#include "obs/build_info.h"
#include "obs/context.h"
#include "obs/json.h"
#include "obs/tracer.h"

namespace fastt {
namespace {

constexpr int kFatalSignals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL};

// Handler state. Written only by InstallBlackbox (before any crash can use
// it); read by the handlers. The path is stored as a leaked C string so the
// handler never touches std::string internals of a dead object.
const char* g_path = nullptr;
BlackboxOptions g_options;
std::terminate_handler g_prev_terminate = nullptr;
bool g_installed = false;

extern "C" void BlackboxSignalHandler(int sig) {
  // Re-arm the default disposition first: a second fault inside the dump
  // terminates immediately instead of recursing.
  for (int fatal : kFatalSignals) std::signal(fatal, SIG_DFL);
  if (g_path != nullptr) {
    const char* reason = "signal";
    switch (sig) {
      case SIGABRT:
        reason = "SIGABRT";
        break;
      case SIGSEGV:
        reason = "SIGSEGV";
        break;
      case SIGBUS:
        reason = "SIGBUS";
        break;
      case SIGFPE:
        reason = "SIGFPE";
        break;
      case SIGILL:
        reason = "SIGILL";
        break;
      default:
        break;
    }
    WriteBlackboxDump(g_path, CurrentTelemetry(), reason, g_options);
  }
  std::raise(sig);
}

[[noreturn]] void BlackboxTerminateHandler() {
  std::signal(SIGABRT, SIG_DFL);
  if (g_path != nullptr) {
    WriteBlackboxDump(g_path, CurrentTelemetry(), "terminate", g_options);
  }
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

void InstallBlackbox(const std::string& path, const BlackboxOptions& options) {
  // Leaked on purpose: the handler may run during static destruction.
  char* stable = new char[path.size() + 1];
  path.copy(stable, path.size());
  stable[path.size()] = '\0';
  g_path = stable;
  g_options = options;
  for (int sig : kFatalSignals) std::signal(sig, BlackboxSignalHandler);
  if (options.install_terminate_handler) {
    std::terminate_handler prev = std::set_terminate(BlackboxTerminateHandler);
    if (!g_installed) g_prev_terminate = prev;  // don't chain to ourselves
  }
  g_installed = true;
}

void UninstallBlackbox() {
  if (!g_installed) return;
  for (int sig : kFatalSignals) std::signal(sig, SIG_DFL);
  if (g_prev_terminate != nullptr) std::set_terminate(g_prev_terminate);
  g_path = nullptr;
  g_installed = false;
}

bool WriteBlackboxDump(const std::string& path, TelemetryContext& context,
                       const std::string& reason,
                       const BlackboxOptions& options) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("fastt-blackbox/1");
  w.Key("build");
  WriteBuildInfo(w);
  w.Key("reason").String(reason);
  w.Key("metrics").Raw(context.metrics().ToJson());

  const EventLog& events = context.events();
  const size_t total = events.size();
  const size_t first = total > options.max_events ? total - options.max_events
                                                  : 0;
  w.Key("events_total").Int(static_cast<int64_t>(total));
  w.Key("events").BeginArray();
  for (size_t i = first; i < total; ++i) w.Raw(events.line(i));
  w.EndArray();

  w.Key("trace").BeginObject();
  if (context.tracer().enabled()) {
    // Best effort: draining mid-crash is exactly what a flight recorder is
    // for. Emitters on other threads may still be running; the ring's
    // single-writer publication keeps reads well-formed regardless.
    context.tracer().Disable();
    const TraceDump dump = context.tracer().Drain();
    w.Key("spans").BeginArray();
    for (const TraceSpan& span : dump.spans) {
      w.BeginObject();
      w.Key("name").String(span.name);
      w.Key("tid").Int(span.tid);
      w.Key("start_s").Number(span.start_s);
      w.Key("dur_s").Number(span.dur_s);
      w.EndObject();
    }
    w.EndArray();
    w.Key("points").Int(static_cast<int64_t>(dump.points.size()));
    w.Key("dropped_events").Int(static_cast<int64_t>(dump.dropped_events));
    w.Key("dropped_spans").Int(static_cast<int64_t>(dump.dropped_spans));
  } else {
    w.Key("spans").BeginArray();
    w.EndArray();
    w.Key("points").Int(0);
    w.Key("dropped_events").Int(0);
    w.Key("dropped_spans").Int(0);
  }
  w.EndObject();
  w.EndObject();

  std::ofstream file(path);
  if (!file) return false;
  file << w.str() << "\n";
  return static_cast<bool>(file);
}

}  // namespace fastt
