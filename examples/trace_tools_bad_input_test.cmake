# Runs each trace tool on an input path that does not exist, and
# capture_to_trace with a misspelt flag (--fromat for --format) before
# and after its paths.  Passes only if every missing-input run exits
# with a code from 1 to 125 (an aborted child yields a non-integer
# result instead) and a message naming the path, and every misspelt-flag
# run exits 2 with a message naming the flag.
#
#   cmake -DTRACE_ANALYZE=<trace_analyze> -DTRACE_REPLAY=<trace_replay> \
#         -DANONYMIZE_TRACE=<anonymize_trace> \
#         -DCAPTURE_TO_TRACE=<capture_to_trace> -DWORK_DIR=<dir> \
#         -P trace_tools_bad_input_test.cmake
set(missing "${WORK_DIR}/trace_tools_no_such_input")
set(output "${WORK_DIR}/trace_tools_bad_input.out")
file(REMOVE "${missing}" "${output}")

# The two tools that write take an output path too, so a regression
# that gets past the input writes into WORK_DIR.
foreach(tool TRACE_ANALYZE TRACE_REPLAY ANONYMIZE_TRACE CAPTURE_TO_TRACE)
  set(args "${missing}")
  if(tool MATCHES "ANONYMIZE|CAPTURE")
    list(APPEND args "${output}")
  endif()
  execute_process(COMMAND "${${tool}}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "${missing}" named)
  if(NOT rc MATCHES "^[0-9]+$" OR rc LESS 1 OR rc GREATER 125)
    message(SEND_ERROR
            "${${tool}} on a missing input gave \"${rc}\":\n${out}${err}")
  elseif(named EQUAL -1)
    message(SEND_ERROR
            "${${tool}} exited ${rc} without naming the path:\n${err}")
  else()
    message(STATUS "${${tool}} exited ${rc}: ${err}")
  endif()
endforeach()

foreach(args "--fromat;v2;${missing};${output}"
             "${missing};${output};--fromat;v2")
  execute_process(COMMAND "${CAPTURE_TO_TRACE}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR
            "capture_to_trace ${args} exited ${rc}, not 2:\n${out}${err}")
  elseif(NOT err MATCHES "--fromat")
    message(SEND_ERROR
            "capture_to_trace ${args} did not name the flag:\n${err}")
  else()
    message(STATUS "capture_to_trace rejected --fromat: ${err}")
  endif()
endforeach()
file(REMOVE "${output}")
