# Runs one figure binary at a small scale in a fresh working directory and
# compares the CSV it writes with its checked-in golden byte for byte. The
# figures are plotted in virtual time, so any change to them fails here; a
# change that moves virtual time on purpose re-records the golden (copy the
# CSV this script names) and says so.
#
#   cmake -DBIN=<figure binary> -DNAME=<csv stem> -DSCALE=<--scale>
#         -DGOLDEN=<golden csv> -DWORK_DIR=<work dir> -P golden_check.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BIN}" --scale "${SCALE}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} --scale ${SCALE} failed: ${status}")
endif()
set(produced "${WORK_DIR}/bench_results/${NAME}.csv")
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${produced}" "${GOLDEN}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${produced} differs from the golden ${GOLDEN}")
endif()
