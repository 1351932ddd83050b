# Runs nfstraced with a generated config whose `format =` names the
# retired v1 "binary" format.  Passes only if nfstraced exits non-zero
# with a message naming the value.
#
#   cmake -DNFSTRACED=<nfstraced> -DWORK_DIR=<dir> \
#         -P nfstraced_bad_format_test.cmake
set(cfg "${WORK_DIR}/nfstraced_bad_format.cfg")
file(WRITE "${cfg}"
     "dir = ${WORK_DIR}/nfstraced_bad_format\nformat = binary\nmax_records = 10\n")
execute_process(COMMAND "${NFSTRACED}" --config "${cfg}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(REMOVE "${cfg}")
file(REMOVE_RECURSE "${WORK_DIR}/nfstraced_bad_format")
if(rc EQUAL 0)
  message(FATAL_ERROR "nfstraced accepted format = binary:\n${out}${err}")
endif()
if(NOT err MATCHES "\"binary\"")
  message(FATAL_ERROR
          "nfstraced exited ${rc} without naming the value:\n${out}${err}")
endif()
message(STATUS "nfstraced rejected format = binary (exit ${rc}): ${err}")
