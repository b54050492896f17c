# A bare `krak_bench` run (no arguments) must refuse with a usage error
# and write nothing: --out is required, so no run can silently
# overwrite a checked-in BENCH report in its working directory.
#
#   cmake -DKRAK_BENCH=<binary> -DWORK_DIR=<empty dir> -P bare_run_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${KRAK_BENCH}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT exit_code EQUAL 2)
  message(FATAL_ERROR "bare krak_bench exited with '${exit_code}', expected 2\n${out}${err}")
endif()
if(NOT out MATCHES "usage: krak_bench" OR NOT err MATCHES "--out FILE is required")
  message(FATAL_ERROR "bare krak_bench printed no usage error:\n${out}${err}")
endif()
file(GLOB_RECURSE written "${WORK_DIR}/*")
if(written)
  message(FATAL_ERROR "bare krak_bench wrote files: ${written}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
