// Rule catalog, config/baseline parsing, and the three report surfaces
// (human text, fastt-lint/1 JSON, SARIF 2.1.0) for fastt-lint.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "obs/build_info.h"
#include "obs/json.h"

namespace fastt {
namespace lint {

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "error";
}

const std::vector<RuleInfo>& RuleCatalog() {
  static const std::vector<RuleInfo>* catalog = new std::vector<RuleInfo>{
      {"fastt-D1", Severity::kError,
       "no iteration over unordered containers in result paths",
       "search results must be byte-identical at any --jobs count; hash "
       "iteration order is an implementation detail that silently changes "
       "tie-breaks (the PR 5 verifier caught exactly this class of bug in "
       "dpos.cc)"},
      {"fastt-D2", Severity::kError,
       "no wall clocks or libc randomness in result paths outside "
       "allowlisted telemetry timer sites",
       "a strategy must be a pure function of (graph, cluster, options, "
       "seed); wall-clock reads belong to wall_s telemetry and explicit "
       "wall-budget sites only"},
      {"fastt-D3", Severity::kError,
       "no pointer-keyed ordered containers in result paths",
       "ordering by address changes run to run under ASLR and allocator "
       "drift, so any decision derived from it is unreproducible"},
      {"fastt-D4", Severity::kError,
       "no shared-variable accumulation inside ParallelFor lambdas",
       "the deterministic-parallelism contract (DESIGN.md §9) is per-slot "
       "writes plus a serial index-order reduction; in-lambda += on a "
       "captured variable is a data race and reorders float reductions"},
      {"fastt-S1", Severity::kError,
       "nothing reachable from a signal handler may allocate, lock, or "
       "touch stdio",
       "the SIGPROF handler (DESIGN.md §16) may only write a preallocated "
       "ring slot, walk its own stack, and read the clock; one malloc in "
       "its closure deadlocks the profiled thread"},
      {"fastt-A1", Severity::kWarning,
       "heap containers in memtrack-covered subsystems must be tagged",
       "untagged allocations escape the per-tag live/peak accounting "
       "(DESIGN.md §13), so the report's mem/* gauges under-count "
       "and the bench-diff allocation gates lose coverage"},
  };
  return *catalog;
}

// ---- Config ----------------------------------------------------------------

bool LoadLintConfig(const std::string& text, LintConfig* cfg,
                    std::string* error) {
  bool reset_result_paths = false;
  bool reset_tagged_paths = false;
  bool reset_handlers = false;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    auto fail = [&](const std::string& why) {
      if (error != nullptr)
        *error = "fastt-lint.conf line " + std::to_string(lineno) + ": " + why;
      return false;
    };
    if (kind == "allow") {
      LintConfig::Allow a;
      if (!(ls >> a.rule >> a.file_substr >> a.function))
        return fail("allow needs <rule> <file-substring> <function|*>");
      cfg->allows.push_back(std::move(a));
    } else if (kind == "handler") {
      std::string fn;
      if (!(ls >> fn)) return fail("handler needs a function name");
      if (!reset_handlers) {
        cfg->handler_roots.clear();
        reset_handlers = true;
      }
      cfg->handler_roots.push_back(fn);
    } else if (kind == "result-path") {
      std::string p;
      if (!(ls >> p)) return fail("result-path needs a path prefix");
      if (!reset_result_paths) {
        cfg->result_paths.clear();
        reset_result_paths = true;
      }
      cfg->result_paths.push_back(p);
    } else if (kind == "tagged-path") {
      std::string p;
      if (!(ls >> p)) return fail("tagged-path needs a path prefix");
      if (!reset_tagged_paths) {
        cfg->tagged_paths.clear();
        reset_tagged_paths = true;
      }
      cfg->tagged_paths.push_back(p);
    } else {
      return fail("unknown directive '" + kind + "'");
    }
  }
  return true;
}

// ---- Baseline --------------------------------------------------------------

namespace {

std::string HexFingerprint(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

}  // namespace

bool LoadBaseline(const std::string& json_text,
                  std::vector<BaselineEntry>* out, std::string* error) {
  JsonValue doc;
  if (!JsonParse(json_text, &doc, error)) return false;
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr ||
      schema->StringOr("") != "fastt-lint-baseline/1") {
    if (error != nullptr) *error = "not a fastt-lint-baseline/1 document";
    return false;
  }
  const JsonValue* entries = doc.Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    if (error != nullptr) *error = "missing entries array";
    return false;
  }
  for (const JsonValue& e : entries->items) {
    BaselineEntry b;
    b.rule = e.Find("rule") != nullptr ? e.Find("rule")->StringOr("") : "";
    b.file = e.Find("file") != nullptr ? e.Find("file")->StringOr("") : "";
    const JsonValue* fp = e.Find("fingerprint");
    if (fp != nullptr)
      b.fingerprint = std::strtoull(fp->StringOr("0").c_str(), nullptr, 16);
    out->push_back(std::move(b));
  }
  return true;
}

std::string BaselineToJson(const std::vector<Finding>& findings) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("fastt-lint-baseline/1");
  w.Key("entries").BeginArray();
  for (const Finding& f : findings) {
    if (f.baselined) continue;  // regenerating: already-matched stay out
    w.BeginObject();
    w.Key("rule").String(f.rule_id);
    w.Key("file").String(f.file);
    w.Key("fingerprint").String(HexFingerprint(f.fingerprint));
    w.Key("snippet").String(f.snippet);  // for humans reviewing the diff
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str() + "\n";
}

BaselineResult ApplyBaseline(std::vector<Finding>* findings,
                             const std::vector<BaselineEntry>& entries) {
  BaselineResult result;
  std::vector<bool> used(entries.size(), false);
  for (Finding& f : *findings) {
    for (size_t i = 0; i < entries.size(); ++i) {
      if (used[i]) continue;
      if (entries[i].rule == f.rule_id && entries[i].file == f.file &&
          entries[i].fingerprint == f.fingerprint) {
        f.baselined = true;
        used[i] = true;
        ++result.matched;
        break;
      }
    }
  }
  for (size_t i = 0; i < entries.size(); ++i)
    if (!used[i]) result.stale.push_back(entries[i]);
  return result;
}

// ---- Reports ---------------------------------------------------------------

std::string FindingsToText(const std::vector<Finding>& findings,
                           const BaselineResult* baseline) {
  std::ostringstream out;
  size_t errors = 0;
  size_t warnings = 0;
  size_t baselined = 0;
  for (const Finding& f : findings) {
    if (f.baselined) {
      ++baselined;
      continue;
    }
    if (f.severity == Severity::kError) ++errors;
    else ++warnings;
    out << f.file << ":" << f.line << ": " << SeverityName(f.severity)
        << " [" << f.rule_id << "] " << f.message << "\n";
    if (!f.fix_hint.empty()) out << "    fix: " << f.fix_hint << "\n";
    if (!f.snippet.empty()) out << "    > " << f.snippet << "\n";
  }
  if (baseline != nullptr) {
    for (const BaselineEntry& e : baseline->stale)
      out << "warning [fastt-baseline-stale] " << e.file << ": baseline "
          << "entry for " << e.rule
          << " no longer fires — regenerate the baseline "
          << "(fastt-lint --write-baseline)\n";
  }
  out << "fastt-lint: " << errors << " error(s), " << warnings
      << " warning(s), " << baselined << " baselined";
  if (baseline != nullptr && !baseline->stale.empty())
    out << ", " << baseline->stale.size() << " stale baseline entr"
        << (baseline->stale.size() == 1 ? "y" : "ies");
  out << "\n";
  return out.str();
}

std::string FindingsToJson(const std::vector<Finding>& findings,
                           const BaselineResult* baseline,
                           size_t files_scanned) {
  size_t errors = 0;
  size_t warnings = 0;
  size_t baselined = 0;
  for (const Finding& f : findings) {
    if (f.baselined) ++baselined;
    else if (f.severity == Severity::kError) ++errors;
    else ++warnings;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("fastt-lint/1");
  w.Key("build");
  WriteBuildInfo(w);
  w.Key("summary").BeginObject();
  w.Key("files_scanned").Int(static_cast<int64_t>(files_scanned));
  w.Key("errors").Int(static_cast<int64_t>(errors));
  w.Key("warnings").Int(static_cast<int64_t>(warnings));
  w.Key("baselined").Int(static_cast<int64_t>(baselined));
  w.Key("stale_baseline")
      .Int(baseline != nullptr ? static_cast<int64_t>(baseline->stale.size())
                               : 0);
  w.EndObject();
  w.Key("rules").BeginArray();
  for (const RuleInfo& r : RuleCatalog()) {
    w.BeginObject();
    w.Key("id").String(r.id);
    w.Key("severity").String(SeverityName(r.severity));
    w.Key("summary").String(r.summary);
    w.EndObject();
  }
  w.EndArray();
  w.Key("findings").BeginArray();
  for (const Finding& f : findings) {
    w.BeginObject();
    w.Key("rule").String(f.rule_id);
    w.Key("severity").String(SeverityName(f.severity));
    w.Key("file").String(f.file);
    w.Key("line").Int(f.line);
    w.Key("message").String(f.message);
    w.Key("fix_hint").String(f.fix_hint);
    w.Key("snippet").String(f.snippet);
    w.Key("fingerprint").String(HexFingerprint(f.fingerprint));
    w.Key("baselined").Bool(f.baselined);
    w.EndObject();
  }
  w.EndArray();
  if (baseline != nullptr) {
    w.Key("stale_baseline").BeginArray();
    for (const BaselineEntry& e : baseline->stale) {
      w.BeginObject();
      w.Key("rule").String(e.rule);
      w.Key("file").String(e.file);
      w.Key("fingerprint").String(HexFingerprint(e.fingerprint));
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.str() + "\n";
}

std::string FindingsToSarif(const std::vector<Finding>& findings) {
  JsonWriter w;
  w.BeginObject();
  w.Key("$schema")
      .String("https://json.schemastore.org/sarif-2.1.0.json");
  w.Key("version").String("2.1.0");
  w.Key("runs").BeginArray();
  w.BeginObject();
  w.Key("tool").BeginObject();
  w.Key("driver").BeginObject();
  w.Key("name").String("fastt-lint");
  w.Key("informationUri")
      .String("DESIGN.md §17 — project-specific static analysis");
  w.Key("version").String(BuildInfo().git_sha);
  w.Key("rules").BeginArray();
  for (const RuleInfo& r : RuleCatalog()) {
    w.BeginObject();
    w.Key("id").String(r.id);
    w.Key("shortDescription").BeginObject();
    w.Key("text").String(r.summary);
    w.EndObject();
    w.Key("fullDescription").BeginObject();
    w.Key("text").String(r.rationale);
    w.EndObject();
    w.Key("defaultConfiguration").BeginObject();
    w.Key("level").String(r.severity == Severity::kError ? "error"
                                                         : "warning");
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();  // driver
  w.EndObject();  // tool
  w.Key("results").BeginArray();
  for (const Finding& f : findings) {
    if (f.baselined) continue;  // suppressed findings stay out of SARIF
    w.BeginObject();
    w.Key("ruleId").String(f.rule_id);
    w.Key("level").String(f.severity == Severity::kError ? "error"
                                                         : "warning");
    w.Key("message").BeginObject();
    w.Key("text").String(f.message +
                         (f.fix_hint.empty() ? "" : " | fix: " + f.fix_hint));
    w.EndObject();
    w.Key("locations").BeginArray();
    w.BeginObject();
    w.Key("physicalLocation").BeginObject();
    w.Key("artifactLocation").BeginObject();
    w.Key("uri").String(f.file);
    w.EndObject();
    w.Key("region").BeginObject();
    w.Key("startLine").Int(f.line);
    w.EndObject();
    w.EndObject();  // physicalLocation
    w.EndObject();
    w.EndArray();  // locations
    w.Key("partialFingerprints").BeginObject();
    w.Key("fasttLint/v1").String(HexFingerprint(f.fingerprint));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();  // results
  w.EndObject();  // run
  w.EndArray();   // runs
  w.EndObject();
  return w.str() + "\n";
}

int ExitCodeFor(const std::vector<Finding>& findings) {
  for (const Finding& f : findings)
    if (!f.baselined && f.severity == Severity::kError) return 1;
  return 0;
}

}  // namespace lint
}  // namespace fastt
