# cmake/GitStamp.cmake names a clean commit by its SHA, appends "-dirty"
# once a tracked file differs from HEAD (an untracked file does not
# count), and writes "unknown" outside a git work tree.
#
#   cmake -DSTAMP=<cmake/GitStamp.cmake> -DWORK_DIR=<scratch dir>
#         -P git_stamp_test.cmake
find_program(GIT git)
if(NOT GIT)
  message(FATAL_ERROR "git_stamp_test: git is not installed")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/repo" "${WORK_DIR}/plain")
# WORK_DIR sits in a build tree that may itself be inside a checkout:
# keep git from finding that checkout above WORK_DIR.
set(ENV{GIT_CEILING_DIRECTORIES} "${WORK_DIR}")
set(header "${WORK_DIR}/krak_git_sha.hpp")

function(run_git)
  execute_process(COMMAND "${GIT}" -c user.name=stamp -c user.email=stamp@localhost
                          -c commit.gpgsign=false
                          -c init.defaultBranch=main ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}/repo"
                  RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "git ${ARGN} failed: ${err}")
  endif()
endfunction()

function(expect_stamp source_dir expected)
  execute_process(COMMAND "${CMAKE_COMMAND}" -DSOURCE_DIR=${source_dir}
                          -DOUT=${header} -P "${STAMP}"
                  RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "GitStamp.cmake failed in ${source_dir}")
  endif()
  file(READ "${header}" text)
  if(NOT text MATCHES "#define KRAK_GIT_SHA_DEFAULT \"${expected}\"")
    message(FATAL_ERROR "expected SHA '${expected}', got:\n${text}")
  endif()
endfunction()

file(WRITE "${WORK_DIR}/repo/tracked.txt" "one\n")
run_git(init -q)
run_git(add tracked.txt)
run_git(commit -q -m one)
execute_process(COMMAND "${GIT}" rev-parse HEAD WORKING_DIRECTORY "${WORK_DIR}/repo"
                OUTPUT_VARIABLE sha OUTPUT_STRIP_TRAILING_WHITESPACE)

expect_stamp("${WORK_DIR}/repo" "${sha}")
file(WRITE "${WORK_DIR}/repo/untracked.txt" "new\n")
expect_stamp("${WORK_DIR}/repo" "${sha}")
file(WRITE "${WORK_DIR}/repo/tracked.txt" "two\n")
expect_stamp("${WORK_DIR}/repo" "${sha}-dirty")
run_git(commit -q -a -m two)
execute_process(COMMAND "${GIT}" rev-parse HEAD WORKING_DIRECTORY "${WORK_DIR}/repo"
                OUTPUT_VARIABLE second OUTPUT_STRIP_TRAILING_WHITESPACE)
expect_stamp("${WORK_DIR}/repo" "${second}")
expect_stamp("${WORK_DIR}/plain" "unknown")
file(REMOVE_RECURSE "${WORK_DIR}")
