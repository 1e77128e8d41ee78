#include "obs/prof_export.h"

#include <sstream>

#include "obs/build_info.h"
#include "obs/json.h"
#include "util/strings.h"
#include "util/table.h"

namespace fastt {

namespace {

double Pct(uint64_t part, uint64_t total) {
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(total);
}

}  // namespace

std::string ProfileToJson(const SymbolizedProfile& prof,
                          const std::map<std::string, std::string>& params) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("fastt-prof/1");
  w.Key("build");
  WriteBuildInfo(w);
  w.Key("params").BeginObject();
  for (const auto& [k, v] : params) w.Key(k).String(v);
  w.EndObject();
  w.Key("hz").Int(prof.hz);
  w.Key("duration_s").Number(prof.duration_s);
  w.Key("samples").BeginObject();
  w.Key("total").Int(static_cast<int64_t>(prof.samples_total));
  w.Key("dropped").Int(static_cast<int64_t>(prof.samples_dropped));
  w.Key("span_attributed").Int(static_cast<int64_t>(prof.span_attributed));
  w.EndObject();
  w.Key("stacks").BeginArray();
  for (const ProfStackRow& row : prof.stacks) {
    w.BeginObject();
    w.Key("frames").BeginArray();
    for (const std::string& f : row.frames) w.String(f);
    w.EndArray();
    if (!row.span.empty()) w.Key("span").String(row.span);
    w.Key("count").Int(static_cast<int64_t>(row.count));
    w.EndObject();
  }
  w.EndArray();
  w.Key("frames").BeginArray();
  for (const ProfFrameRow& row : prof.frames) {
    w.BeginObject();
    w.Key("name").String(row.name);
    w.Key("self").Int(static_cast<int64_t>(row.self));
    w.Key("total").Int(static_cast<int64_t>(row.total));
    w.Key("self_pct").Number(Pct(row.self, prof.samples_total));
    w.Key("total_pct").Number(Pct(row.total, prof.samples_total));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string RenderProfileTable(const SymbolizedProfile& prof, int top_n) {
  std::ostringstream os;
  os << StrFormat(
      "cpu profile: %llu samples at %d Hz over %.2fs (%llu dropped), "
      "%.1f%% span-attributed\n",
      static_cast<unsigned long long>(prof.samples_total), prof.hz,
      prof.duration_s,
      static_cast<unsigned long long>(prof.samples_dropped),
      Pct(prof.span_attributed, prof.samples_total));
  TablePrinter table({"frame", "self", "self%", "total", "total%"});
  int rows = 0;
  for (const ProfFrameRow& row : prof.frames) {
    if (top_n > 0 && rows >= top_n) break;
    // Templated frames (std::_Hashtable<...>::find) can run to hundreds of
    // characters; keep the table readable. The JSON keeps full names.
    std::string name = row.name;
    if (name.size() > 64) name = name.substr(0, 61) + "...";
    table.AddRow({name, std::to_string(row.self),
                  StrFormat("%.1f%%", Pct(row.self, prof.samples_total)),
                  std::to_string(row.total),
                  StrFormat("%.1f%%", Pct(row.total, prof.samples_total))});
    ++rows;
  }
  os << table.Render();
  return os.str();
}

}  // namespace fastt
