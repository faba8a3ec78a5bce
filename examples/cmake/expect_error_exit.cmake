# Runs a command that must fail cleanly: exit status exactly
# EXPECT_STATUS (default 1; a signal such as SIGABRT reports as text,
# not as a number) with EXPECT_STDERR in its standard error.
#
#   cmake -DCOMMAND="prog;arg;..." [-DEXPECT_STATUS=n]
#         -DEXPECT_STDERR=regex -P expect_error_exit.cmake
if(NOT DEFINED EXPECT_STATUS)
  set(EXPECT_STATUS 1)
endif()
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL "${EXPECT_STATUS}")
  message(FATAL_ERROR
          "expected exit status ${EXPECT_STATUS}, got '${status}'\n${stderr}")
endif()
if(NOT stderr MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr lacks '${EXPECT_STDERR}':\n${stderr}")
endif()
