# Runs BENCH (with ARG, if given) and passes only when it exits 2 with a
# diagnostic on stderr matching EXPECT.
#   cmake -DBENCH=<binary> [-DARG=<argument>] -DEXPECT=<regex> -P expect_refusal.cmake
execute_process(COMMAND ${BENCH} ${ARG}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got ${code}\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "expected stderr matching '${EXPECT}', got:\n${err}")
endif()
