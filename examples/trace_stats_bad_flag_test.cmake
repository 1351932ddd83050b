# Runs trace_stats on a readable one-record trace with a misspelt flag
# (--jsn for --json).  Passes only if trace_stats exits non-zero with a
# message naming the flag, instead of taking the flag for the input path.
#
#   cmake -DTRACE_STATS=<trace_stats> -DWORK_DIR=<dir> \
#         -P trace_stats_bad_flag_test.cmake
set(trace "${WORK_DIR}/trace_stats_bad_flag.trace")
file(WRITE "${trace}"
     "t=1.000000 r=1.000200 c=10.1.0.5 s=10.0.0.1 xid=1a2b v=3 p=udp "
     "op=getattr fh=0102030405060708 st=OK\n")
execute_process(COMMAND "${TRACE_STATS}" --jsn "${trace}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(REMOVE "${trace}")
if(rc EQUAL 0)
  message(FATAL_ERROR "trace_stats accepted --jsn:\n${out}${err}")
endif()
if(NOT err MATCHES "--jsn")
  message(FATAL_ERROR
          "trace_stats exited ${rc} without naming the flag:\n${out}${err}")
endif()
message(STATUS "trace_stats rejected --jsn (exit ${rc}): ${err}")
