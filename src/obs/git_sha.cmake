# Writes the git sha of the checkout holding this file to OUT as the
# FASTT_BUILD_GIT_SHA define, rewriting OUT only when the sha changed, so a
# new commit recompiles build_info.cc alone. The fastt_git_sha target
# (src/obs/CMakeLists.txt) runs it on every build:
#   cmake -DGIT=<git executable or empty> -DOUT=<header> -P git_sha.cmake
set(sha "")
if(GIT)
  execute_process(
    COMMAND "${GIT}" rev-parse --short=12 HEAD
    WORKING_DIRECTORY "${CMAKE_CURRENT_LIST_DIR}"
    OUTPUT_VARIABLE sha
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
  )
endif()
if(NOT sha)
  set(sha "unknown")
endif()
set(content "#define FASTT_BUILD_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
