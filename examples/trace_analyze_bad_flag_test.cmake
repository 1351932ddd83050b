# Runs trace_analyze on a readable one-record trace with flags it must
# refuse: a misspelt flag (--jsn for --json), the retired --batch, and
# malformed or out-of-range values.  Passes only if every run exits 2
# with a message naming the flag, instead of taking the flag for the
# input path or the value for some other number.
#
#   cmake -DTRACE_ANALYZE=<trace_analyze> -DWORK_DIR=<dir> \
#         -P trace_analyze_bad_flag_test.cmake
set(trace "${WORK_DIR}/trace_analyze_bad_flag.trace")
file(WRITE "${trace}"
     "t=1.000000 r=1.000200 c=10.1.0.5 s=10.0.0.1 xid=1a2b v=3 p=udp "
     "op=getattr fh=0102030405060708 st=OK\n")

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
expect_rejected(--uid abc)
expect_rejected(--decode-threads two)
# One past the thread-count bound (64).  Never a negative or four-digit
# count: a parser that accepts it starts that many threads.
expect_rejected(--decode-threads 65)
file(REMOVE "${trace}")
