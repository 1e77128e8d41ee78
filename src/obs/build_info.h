// Build provenance, stamped into every JSON artifact the CLI can emit
// (fastt-bench/1, fastt-report/1, fastt-prof/1) and
// printed by `fastt --version`. A profile or bench report without the sha
// and flags it was built from can't be compared to anything; with them,
// artifacts from different checkouts and build types are self-describing.
#pragma once

#include <string>

namespace fastt {

class JsonWriter;

struct BuildInfoData {
  std::string git_sha;     // short sha at build time, "unknown" outside git
  std::string compiler;    // e.g. "g++ 13.2.0"
  std::string build_type;  // CMAKE_BUILD_TYPE, e.g. "Release"
  std::string flags;       // sanitizers/options that change comparability
};

// The one shared provenance record for this binary.
const BuildInfoData& BuildInfo();

// Writes the standard "build" object {git_sha, compiler, build_type, flags}
// under the writer's current value position. Callers emit Key("build")
// first so every schema spells the section identically.
void WriteBuildInfo(JsonWriter& w);

// One-line human form for --version: "sha abc123 · g++ 13.2.0 · Release".
std::string BuildInfoLine();

}  // namespace fastt
