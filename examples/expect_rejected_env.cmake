# Run PROGRAM with one malformed environment setting (ENV, as NAME=value) and
# pass when it exits with status 2 and its stderr names the accepted form
# (EXPECT): a rejected setting must end the program with its message, not
# with std::terminate.
#
#   cmake -DPROGRAM=<exe> -DENV=VPAR_TRACE=fligth -DEXPECT=<text> -P expect_rejected_env.cmake
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${PROGRAM}
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${ENV}: expected exit status 2, got '${status}'\nstderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${ENV}: stderr does not name the accepted form '${EXPECT}'\nstderr: ${err}")
endif()
