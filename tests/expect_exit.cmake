# Runs COMMAND (a list joined with '|') and fails unless it exits with
# EXPECTED. Used for command-line smoke tests of the example binaries, where
# a crash (e.g. an uncaught exception) must not pass for a usage error.
#
#   cmake -DEXPECTED=2 "-DCOMMAND=prog|--flag|value" -P expect_exit.cmake
string(REPLACE "|" ";" _command "${COMMAND}")
execute_process(COMMAND ${_command} RESULT_VARIABLE _rc
                OUTPUT_VARIABLE _out ERROR_VARIABLE _err)
if(NOT "${_rc}" STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "expected exit ${EXPECTED}, got '${_rc}' from "
                      "${_command}\nstdout:\n${_out}\nstderr:\n${_err}")
endif()
