# Asserts that sa_opt_cli rejects a command line as a usage error.
#
#   cmake -DCLI=<sa_opt_cli> "-DARGS=<arg|arg|...>" -P expect_usage_error.cmake
#
# Passes only when the CLI exits with status 2 and prints the usage text;
# any other status (a silent run, or exit 1 from a runtime error) fails.
if(NOT DEFINED CLI OR NOT DEFINED ARGS)
  message(FATAL_ERROR "expect_usage_error: -DCLI and -DARGS are required")
endif()
string(REPLACE "|" ";" ARGS "${ARGS}")
execute_process(COMMAND ${CLI} ${ARGS}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "sa_opt_cli ${ARGS}: expected exit 2, got ${rc}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "usage: sa_opt_cli")
  message(FATAL_ERROR "sa_opt_cli ${ARGS}: exit 2 without the usage text\n"
                      "stderr:\n${err}")
endif()
