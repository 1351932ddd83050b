# Runs each trace tool on an input path that does not exist, and
# capture_to_trace with a misspelt flag (--fromat) and with the removed
# --format, before and after its paths.  Passes only if every
# missing-input run exits with a code from 1 to 125 (an aborted child
# yields a non-integer result instead) and a message naming the path,
# and every bad-flag run exits 2 with a message naming the flag.  Then
# the tools must report what they cannot write or read back: with an
# input nfstraced first writes into WORK_DIR, anonymize_trace into
# /dev/full must exit 1 naming the failure, and nfstraced must exit 1
# naming a sealed segment that is not a v2 trace.
#
#   cmake -DTRACE_ANALYZE=<trace_analyze> -DTRACE_REPLAY=<trace_replay> \
#         -DANONYMIZE_TRACE=<anonymize_trace> \
#         -DCAPTURE_TO_TRACE=<capture_to_trace> -DNFSTRACED=<nfstraced> \
#         -DWORK_DIR=<dir> -P trace_tools_bad_input_test.cmake
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

foreach(flag --fromat --format)
  foreach(args "${flag};v2;${missing};${output}"
               "${missing};${output};${flag};v2")
    execute_process(COMMAND "${CAPTURE_TO_TRACE}" ${args}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc STREQUAL "2")
      message(SEND_ERROR
              "capture_to_trace ${args} exited ${rc}, not 2:\n${out}${err}")
    elseif(NOT err MATCHES "${flag}")
      message(SEND_ERROR
              "capture_to_trace ${args} did not name the flag:\n${err}")
    else()
      message(STATUS "capture_to_trace rejected ${flag}: ${err}")
    endif()
  endforeach()
endforeach()
file(REMOVE "${output}")

set(dir "${WORK_DIR}/trace_tools_bad_input")
set(trace "${dir}/eecs-000001.trace")
file(REMOVE_RECURSE "${dir}")
execute_process(COMMAND "${NFSTRACED}" --dir "${dir}" --max-records 50
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0" OR NOT EXISTS "${trace}")
  message(FATAL_ERROR "nfstraced did not write ${trace} (${rc}):\n${err}")
endif()

if(EXISTS /dev/full)
  execute_process(COMMAND "${ANONYMIZE_TRACE}" "${trace}" /dev/full
                          "${dir}/anon.map"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1")
    message(SEND_ERROR
            "anonymize_trace into /dev/full exited ${rc}, not 1:\n${out}${err}")
  elseif(NOT err MATCHES "failed" OR out MATCHES "wrote")
    message(SEND_ERROR
            "anonymize_trace into /dev/full did not name the failure:\n"
            "${out}${err}")
  else()
    message(STATUS "anonymize_trace into /dev/full exited 1: ${err}")
  endif()
endif()

# A sealed segment in the text rendering, as an older nfstraced wrote it.
execute_process(COMMAND "${TRACE_ANALYZE}" --records "${trace}"
                OUTPUT_VARIABLE lines ERROR_QUIET)
file(WRITE "${trace}" "${lines}")
file(REMOVE "${dir}/eecs.manifest")
execute_process(COMMAND "${NFSTRACED}" --dir "${dir}" --recover-only
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "${trace}" named)
if(NOT rc STREQUAL "1" OR named EQUAL -1)
  message(SEND_ERROR
          "nfstraced on a text segment exited ${rc} without naming it (1):\n"
          "${out}${err}")
else()
  message(STATUS "nfstraced refused the text segment: ${err}")
endif()
file(REMOVE_RECURSE "${dir}")
