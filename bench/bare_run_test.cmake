# A refused run must exit with EXPECT_EXIT (default 2, a usage error),
# print the expected message to stderr (and, when EXPECT_OUT is set, the
# usage line to stdout), and write nothing: a bare `krak_bench` run
# (--out is required, so no run can silently overwrite a checked-in
# BENCH report in its working directory), any unknown option or bad
# value of a driver, and a run that fails before its work starts alike.
#
#   cmake -DPROGRAM=<binary> -DWORK_DIR=<empty dir>
#         [-DARGS="<space-separated arguments>"] [-DEXPECT_OUT=<regex>]
#         [-DEXPECT_EXIT=<status>] -DEXPECT_ERR=<regex>
#         -P bare_run_test.cmake
if("${EXPECT_EXIT}" STREQUAL "")
  set(EXPECT_EXIT 2)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(name "${PROGRAM}" NAME)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${PROGRAM}" ${args}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT exit_code EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "${name} ${ARGS} exited with '${exit_code}', expected ${EXPECT_EXIT}\n${out}${err}")
endif()
if((EXPECT_OUT AND NOT out MATCHES "${EXPECT_OUT}") OR NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "${name} ${ARGS} printed no error matching '${EXPECT_ERR}' (and usage matching '${EXPECT_OUT}'):\n${out}${err}")
endif()
file(GLOB_RECURSE written "${WORK_DIR}/*")
if(written)
  message(FATAL_ERROR "${name} ${ARGS} wrote files: ${written}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
