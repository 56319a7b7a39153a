# Passes when BIN, run with ARGS (one space-separated string), exits 2
# with the regex EXPECT on stderr: a flag refused at parse time.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, wanted 2 and "
                      "'${EXPECT}' on stderr:\n${err}")
endif()
