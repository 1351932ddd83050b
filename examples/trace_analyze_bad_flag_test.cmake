# Runs trace_analyze on a readable 50-record trace, which nfstraced
# first writes into WORK_DIR, with flags it must refuse: a misspelt flag
# (--jsn for --json), the retired --batch, --records with --json, and
# malformed or out-of-range values.  Passes only if every run exits 2
# with a message naming the flag, instead of taking the flag for the
# input path or the value for some other number, and if --records then
# prints one line per record, the same bytes at 4 decode threads.
#
#   cmake -DTRACE_ANALYZE=<trace_analyze> -DNFSTRACED=<nfstraced> \
#         -DWORK_DIR=<dir> -P trace_analyze_bad_flag_test.cmake
set(dir "${WORK_DIR}/trace_analyze_bad_flag")
set(trace "${dir}/eecs-000001.trace")
file(REMOVE_RECURSE "${dir}")
execute_process(COMMAND "${NFSTRACED}" --dir "${dir}" --max-records 50
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0" OR NOT EXISTS "${trace}")
  message(FATAL_ERROR "nfstraced did not write ${trace} (${rc}):\n${err}")
endif()

function(expect_rejected flag)
  execute_process(COMMAND "${TRACE_ANALYZE}" ${flag} ${ARGN} "${trace}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR
            "trace_analyze ${flag} ${ARGN} exited ${rc}, not 2:\n${out}${err}")
  elseif(NOT err MATCHES "${flag}")
    message(SEND_ERROR
            "trace_analyze ${flag} ${ARGN} did not name the flag:\n${err}")
  else()
    message(STATUS "trace_analyze rejected ${flag} ${ARGN}: ${err}")
  endif()
endfunction()

expect_rejected(--jsn)
expect_rejected(--batch 8)
expect_rejected(--records --json)
expect_rejected(--uid abc)
expect_rejected(--decode-threads two)
# One past the thread-count bound (64).  Never a negative or four-digit
# count: a parser that accepts it starts that many threads.
expect_rejected(--decode-threads 65)

# The human view of the trace: one formatRecord line per record.
execute_process(COMMAND "${TRACE_ANALYZE}" --records "${trace}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE one ERROR_VARIABLE err)
execute_process(COMMAND "${TRACE_ANALYZE}" --records --decode-threads 4
                        "${trace}"
                RESULT_VARIABLE rc4 OUTPUT_VARIABLE four ERROR_VARIABLE err4)
string(REGEX MATCHALL "\n" lines "${one}")
list(LENGTH lines count)
if(NOT rc STREQUAL "0" OR NOT count EQUAL 50 OR NOT one MATCHES "^t=[0-9]")
  message(SEND_ERROR
          "trace_analyze --records exited ${rc} with ${count} lines, not 50:"
          "\n${one}${err}")
elseif(NOT rc4 STREQUAL "0" OR NOT one STREQUAL four)
  message(SEND_ERROR
          "trace_analyze --records at 4 threads differs:\n${four}${err4}")
else()
  message(STATUS "trace_analyze --records printed 50 lines at 1 and 4 threads")
endif()
file(REMOVE_RECURSE "${dir}")
