#include "obs/trace_export.h"

#include <algorithm>
#include <map>

#include "obs/json.h"
#include "util/strings.h"
#include "util/table.h"

namespace fastt {
namespace {

int64_t Us(double seconds) { return static_cast<int64_t>(seconds * 1e6); }

}  // namespace

std::string TraceToChromeJson(const TraceDump& dump) {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const TraceThreadInfo& t : dump.threads) {
    w.BeginObject();
    w.Key("name").String("thread_name");
    w.Key("ph").String("M");
    w.Key("pid").Int(1);
    w.Key("tid").Int(t.tid);
    w.Key("args").BeginObject();
    w.Key("name").String(t.name.empty() ? StrFormat("thread %d", t.tid)
                                        : t.name);
    w.EndObject();
    w.EndObject();
  }
  for (const TraceSpan& s : dump.spans) {
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("ph").String("X");
    w.Key("pid").Int(1);
    w.Key("tid").Int(s.tid);
    w.Key("ts").Int(Us(s.start_s));
    w.Key("dur").Int(std::max<int64_t>(Us(s.dur_s), 1));
    w.Key("cat").String("search");
    w.EndObject();
  }
  for (const TracePoint& p : dump.points) {
    w.BeginObject();
    w.Key("name").String(p.name);
    w.Key("ph").String(p.is_counter ? "C" : "i");
    w.Key("pid").Int(1);
    w.Key("tid").Int(p.tid);
    w.Key("ts").Int(Us(p.t_s));
    if (p.is_counter) {
      w.Key("args").BeginObject();
      w.Key("value").Number(p.value);
      w.EndObject();
    } else {
      w.Key("s").String("t");
      w.Key("args").BeginObject();
      w.Key("value").Number(p.value);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").String("ms");
  w.Key("metadata").BeginObject();
  w.Key("dropped_events").Int(static_cast<int64_t>(dump.dropped_events));
  w.Key("dropped_spans").Int(static_cast<int64_t>(dump.dropped_spans));
  w.EndObject();
  w.EndObject();
  return w.str();
}

TraceSummary SummarizeTrace(const TraceDump& dump) {
  TraceSummary out;
  out.dropped_events = dump.dropped_events;
  out.dropped_spans = dump.dropped_spans;
  out.span_count = dump.spans.size();

  struct Agg {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Agg> by_name;
  std::map<int, TraceThreadStats> by_tid;
  for (const TraceThreadInfo& t : dump.threads) {
    by_tid[t.tid] = {t.tid, t.name, 0.0};
  }

  // Spans arrive sorted by (tid, start asc, dur desc) — Drain guarantees
  // it — so a linear scan with an enclosing-span stack recovers nesting:
  // same-thread spans either nest or are disjoint.
  struct Open {
    double end_s;
    std::string name;
    double child_s = 0.0;  // time covered by direct children
  };
  std::vector<Open> stack;
  int cur_tid = -1;
  auto close_to = [&](double start_s) {
    while (!stack.empty() && stack.back().end_s <= start_s) {
      Agg& a = by_name[stack.back().name];
      a.self_s -= stack.back().child_s;
      stack.pop_back();
    }
  };
  for (const TraceSpan& s : dump.spans) {
    if (s.tid != cur_tid) {
      close_to(1e300);
      cur_tid = s.tid;
    }
    close_to(s.start_s);
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_s += s.dur_s;
    a.self_s += s.dur_s;
    if (!stack.empty()) {
      stack.back().child_s += s.dur_s;
    } else {
      // Top-level span: counts toward thread busy time and root coverage.
      by_tid[s.tid].busy_s += s.dur_s;
      out.root_span_s += s.dur_s;
    }
    out.wall_s = std::max(out.wall_s, s.end_s());
    stack.push_back({s.end_s(), s.name, 0.0});
  }
  close_to(1e300);

  for (auto& [name, a] : by_name) {
    out.phases.push_back({name, a.count, a.total_s, std::max(0.0, a.self_s)});
  }
  std::sort(out.phases.begin(), out.phases.end(),
            [](const TracePhase& x, const TracePhase& y) {
              if (x.total_s != y.total_s) return x.total_s > y.total_s;
              return x.name < y.name;
            });
  for (auto& [tid, stats] : by_tid) out.threads.push_back(stats);
  return out;
}

std::string RenderTraceSummary(const TraceSummary& summary) {
  std::string out;
  TablePrinter phases({"phase", "count", "total s", "self s", "self %"});
  const double denom = summary.wall_s > 0 ? summary.wall_s : 1.0;
  for (const TracePhase& p : summary.phases) {
    phases.AddRow({p.name, StrFormat("%lld", static_cast<long long>(p.count)),
                   StrFormat("%.4f", p.total_s), StrFormat("%.4f", p.self_s),
                   StrFormat("%.1f", 100.0 * p.self_s / denom)});
  }
  out += phases.Render();
  out += "\n";
  TablePrinter threads({"thread", "busy s", "busy %"});
  for (const TraceThreadStats& t : summary.threads) {
    threads.AddRow(
        {t.name.empty() ? StrFormat("thread %d", t.tid) : t.name,
         StrFormat("%.4f", t.busy_s),
         StrFormat("%.1f", 100.0 * t.busy_s / denom)});
  }
  out += threads.Render();
  out += StrFormat(
      "\nwall %.4f s  ·  %llu spans  ·  dropped %llu events, %llu spans\n",
      summary.wall_s, static_cast<unsigned long long>(summary.span_count),
      static_cast<unsigned long long>(summary.dropped_events),
      static_cast<unsigned long long>(summary.dropped_spans));
  return out;
}

}  // namespace fastt
