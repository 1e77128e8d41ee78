#include "obs/build_info.h"

#include "obs/json.h"
#include "util/strings.h"

// The FASTT_BUILD_* macros reach this file only (src/obs/CMakeLists.txt):
// the git sha through a header regenerated at build time, the build type
// and flags as COMPILE_DEFINITIONS, so restamping provenance never rebuilds
// anything else.
#include "build_git_sha.h"

#ifndef FASTT_BUILD_TYPE
#define FASTT_BUILD_TYPE "unknown"
#endif
#ifndef FASTT_BUILD_FLAGS
#define FASTT_BUILD_FLAGS ""
#endif

namespace fastt {
namespace {

std::string CompilerString() {
#if defined(__clang__)
  return StrFormat("clang++ %d.%d.%d", __clang_major__, __clang_minor__,
                   __clang_patchlevel__);
#elif defined(__GNUC__)
  return StrFormat("g++ %d.%d.%d", __GNUC__, __GNUC_MINOR__,
                   __GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfoData& BuildInfo() {
  static const BuildInfoData* info = [] {
    auto* data = new BuildInfoData();
    data->git_sha = FASTT_BUILD_GIT_SHA;
    data->compiler = CompilerString();
    data->build_type = FASTT_BUILD_TYPE;
    data->flags = FASTT_BUILD_FLAGS;
    return data;
  }();
  return *info;
}

void WriteBuildInfo(JsonWriter& w) {
  const BuildInfoData& info = BuildInfo();
  w.BeginObject();
  w.Key("git_sha").String(info.git_sha);
  w.Key("compiler").String(info.compiler);
  w.Key("build_type").String(info.build_type);
  w.Key("flags").String(info.flags);
  w.EndObject();
}

std::string BuildInfoLine() {
  const BuildInfoData& info = BuildInfo();
  std::string line = StrFormat("sha %s · %s · %s", info.git_sha.c_str(),
                               info.compiler.c_str(),
                               info.build_type.c_str());
  if (!info.flags.empty()) line += StrFormat(" · %s", info.flags.c_str());
  return line;
}

}  // namespace fastt
