# A `krak_bench` usage error must refuse with exit 2, print the usage
# text and the expected message, and write nothing: a bare run (--out is
# required, so no run can silently overwrite a checked-in BENCH report
# in its working directory) and any bad option value alike.
#
#   cmake -DKRAK_BENCH=<binary> -DWORK_DIR=<empty dir>
#         [-DARGS="<space-separated arguments>"] -DEXPECT_ERR=<regex>
#         -P bare_run_test.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${KRAK_BENCH}" ${args}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT exit_code EQUAL 2)
  message(FATAL_ERROR "krak_bench ${ARGS} exited with '${exit_code}', expected 2\n${out}${err}")
endif()
if(NOT out MATCHES "usage: krak_bench" OR NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "krak_bench ${ARGS} printed no usage error matching '${EXPECT_ERR}':\n${out}${err}")
endif()
file(GLOB_RECURSE written "${WORK_DIR}/*")
if(written)
  message(FATAL_ERROR "krak_bench ${ARGS} wrote files: ${written}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
