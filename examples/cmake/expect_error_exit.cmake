# Runs a command that must fail cleanly: exit status exactly 1 (a signal
# such as SIGABRT reports as text, not as 1) with EXPECT_STDERR in its
# standard error.
#
#   cmake -DCOMMAND="prog;arg;..." -DEXPECT_STDERR=regex -P expect_error_exit.cmake
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'\n${stderr}")
endif()
if(NOT stderr MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr lacks '${EXPECT_STDERR}':\n${stderr}")
endif()
