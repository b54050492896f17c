# krak_repro must exit 0 (every gated check passes) and print exactly the
# checked-in golden document. On a mismatch the produced document stays
# at OUTPUT so a deliberate change can be reviewed number by number.
#
#   cmake -DKRAK_REPRO=<binary> -DGOLDEN=<golden file> -DOUTPUT=<file>
#         -P golden_test.cmake
file(REMOVE "${OUTPUT}")
execute_process(
  COMMAND "${KRAK_REPRO}"
  RESULT_VARIABLE exit_code
  OUTPUT_FILE "${OUTPUT}"
  ERROR_VARIABLE err)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "krak_repro exited with '${exit_code}', expected 0\n${err}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUTPUT}" "${GOLDEN}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "krak_repro output differs from the golden file.\n"
    "Produced document: ${OUTPUT}\n"
    "Review:  diff -u ${GOLDEN} ${OUTPUT}\n"
    "Accept a deliberate change:  cp ${OUTPUT} ${GOLDEN}")
endif()
file(REMOVE "${OUTPUT}")
