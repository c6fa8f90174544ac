# Test driver for the bad-flag regression ctests: runs TOOL with ARGS
# (a ;-list) and asserts the full contract ISSUE.md states —
#   1. nonzero exit (a mis-parsed flag must not look like success),
#   2. a clean "error:" diagnostic on the output,
#   3. no sanitizer report (ASan exits nonzero too; under the ASan/UBSan
#      leg this turns "no UB on hostile flags" into a hard gate).
# Plain WILL_FAIL or PASS_REGULAR_EXPRESSION each check only one of these.
#
# An optional -DEXPECT=<regex> must also match the output (a removed flag
# must fail as an unknown argument, not on its value).
#
# Usage: cmake -DTOOL=<binary> "-DARGS=a;b;c" [-DEXPECT=regex] -P check_fails_cleanly.cmake
if(NOT DEFINED TOOL OR NOT DEFINED ARGS)
  message(FATAL_ERROR "check_fails_cleanly: TOOL and ARGS are required")
endif()

execute_process(COMMAND ${TOOL} ${ARGS}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(combined "${out}${err}")

if(rc STREQUAL "0")
  message(FATAL_ERROR "expected a nonzero exit, got 0; output:\n${combined}")
endif()
if(NOT rc MATCHES "^[0-9]+$")
  # execute_process reports abnormal termination (signals) as a string.
  message(FATAL_ERROR "tool terminated abnormally (${rc}); output:\n${combined}")
endif()
if(NOT combined MATCHES "error: ")
  message(FATAL_ERROR "no clean 'error:' diagnostic; exit ${rc}, output:\n${combined}")
endif()
if(combined MATCHES "Sanitizer|runtime error")
  message(FATAL_ERROR "sanitizer fired on a hostile flag; output:\n${combined}")
endif()
if(DEFINED EXPECT AND NOT combined MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}'; exit ${rc}, output:\n${combined}")
endif()
