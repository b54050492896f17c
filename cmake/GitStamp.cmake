# Writes the header that names the commit a build was made from:
#   cmake -DSOURCE_DIR=<checkout> -DOUT=<header> -P cmake/GitStamp.cmake
# src/core/CMakeLists.txt runs it on every build (target krak_git_stamp).
# The SHA gets "-dirty" when a tracked file differs from HEAD; outside a
# git work tree it is "unknown". The header is rewritten only when its
# text changes, so building an unchanged commit recompiles nothing.
execute_process(
  COMMAND git rev-parse HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE sha_result
  ERROR_QUIET)
if(NOT sha_result EQUAL 0 OR NOT sha)
  set(sha "unknown")
else()
  execute_process(
    COMMAND git --no-optional-locks status --porcelain --untracked-files=no
    WORKING_DIRECTORY "${SOURCE_DIR}"
    OUTPUT_VARIABLE changes
    RESULT_VARIABLE status_result
    ERROR_QUIET)
  # A status that cannot be read cannot show the tree clean.
  if(NOT status_result EQUAL 0 OR changes)
    string(APPEND sha "-dirty")
  endif()
endif()

set(text "// Generated by cmake/GitStamp.cmake at build time; do not edit.\n#define KRAK_GIT_SHA_DEFAULT \"${sha}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUT}" "${text}")
endif()
