# Runs nfstraced --recover-only (so nothing is captured) with settings it
# must refuse: malformed or signed numbers given as flags, and config
# files with a misspelt key, a signed count, retired keys (format,
# compact_after_s) and the retired v1 format name.  Passes only if every
# run exits 2 with a message naming the key, an unknown flag still exits
# 2, and the shipped configs/daemon.cfg is accepted (exit 0).
#
#   cmake -DNFSTRACED=<nfstraced> -DDAEMON_CFG=<configs/daemon.cfg> \
#         -DWORK_DIR=<dir> -P nfstraced_bad_settings_test.cmake
set(dir "${WORK_DIR}/nfstraced_bad_settings")
set(cfg "${WORK_DIR}/nfstraced_bad_settings.cfg")

# expect_rejected(<key regex> <args>...): nfstraced <args> must exit 2
# and name the key.
function(expect_rejected key)
  execute_process(COMMAND "${NFSTRACED}" ${ARGN} --dir "${dir}" --recover-only
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR
            "nfstraced ${ARGN} exited ${rc}, not 2:\n${out}${err}")
  elseif(NOT err MATCHES "${key}")
    message(SEND_ERROR "nfstraced ${ARGN} did not name ${key}:\n${err}")
  else()
    message(STATUS "nfstraced rejected ${ARGN}: ${err}")
  endif()
endfunction()

# expect_config_rejected(<key regex> <config text>)
function(expect_config_rejected key text)
  file(WRITE "${cfg}" "${text}\n")
  expect_rejected("${key}" --config "${cfg}")
endfunction()

expect_rejected(rotate.records --rotate-records abc)
expect_rejected(rotate.records --rotate-records -5)
expect_rejected(sim.hours --sim-hours x)
expect_rejected(bogus --bogus 1)
expect_config_rejected(rotate_record "rotate_record = 25")
expect_config_rejected(rotate_records "rotate_records = -1")
expect_config_rejected(format "format = text")
expect_config_rejected(format "format = binary")
expect_config_rejected(compact_after_s "compact_after_s = 0")
file(REMOVE "${cfg}")

execute_process(COMMAND "${NFSTRACED}" --config "${DAEMON_CFG}"
                        --dir "${dir}" --recover-only
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(SEND_ERROR "nfstraced rejected ${DAEMON_CFG} (exit ${rc}):\n${err}")
endif()
file(REMOVE_RECURSE "${dir}")
