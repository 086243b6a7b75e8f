# Run netlist_runner on one deck; check its exit code and its output.
#
#   cmake -DRUNNER=<netlist_runner> -DNETLIST=<deck.sp> [-DARGS=a|b|...]
#         -DEXPECT_EXIT=<code> -DEXPECT=<text>[|<text>...]
#         -P netlist_runner_check.cmake
#
# Passes when the runner exits with EXPECT_EXIT and its stdout or stderr
# contains at least one of the '|'-separated EXPECT texts.
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" ";" expected "${EXPECT}")
execute_process(COMMAND "${RUNNER}" "${NETLIST}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL EXPECT_EXIT)
  message(FATAL_ERROR "netlist_runner exited ${code}, expected "
    "${EXPECT_EXIT}\nstdout:\n${out}\nstderr:\n${err}")
endif()
foreach(text IN LISTS expected)
  string(FIND "${out}${err}" "${text}" at)
  if(NOT at EQUAL -1)
    return()
  endif()
endforeach()
message(FATAL_ERROR "netlist_runner printed none of '${EXPECT}'\n"
  "stdout:\n${out}\nstderr:\n${err}")
