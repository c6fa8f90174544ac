# Test driver for tool/mpsched_serve_stdio: runs `mpsched_serve --stdio`
# on a request file as its stdin — a ping, a two-job submit and a stats
# request, the last line without a newline (at end of input an
# unterminated last line is still a request) — and requires exit 0, three
# "ok":true responses and both jobs succeeded.
#
# Usage: cmake -DSERVE=<mpsched_serve> -DREQUESTS=<file to write> -P check_serve_stdio.cmake
if(NOT DEFINED SERVE OR NOT DEFINED REQUESTS)
  message(FATAL_ERROR "check_serve_stdio: SERVE and REQUESTS are required")
endif()

file(WRITE ${REQUESTS} [=[{"op":"ping","id":1}
{"op":"submit","id":2,"corpus":{"schema":"mpsched.batch.corpus/v1","jobs":[{"workload":"small_example"},{"workload":"paper_3dft"}]}}
{"op":"stats","id":3}]=])

execute_process(COMMAND ${SERVE} --stdio
  INPUT_FILE ${REQUESTS}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)

if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "expected exit 0, got ${rc}; output:\n${out}${err}")
endif()
string(REGEX MATCHALL "\"ok\":true" oks "${out}")
list(LENGTH oks ok_count)
if(NOT ok_count EQUAL 3)
  message(FATAL_ERROR "expected 3 \"ok\":true responses, got ${ok_count}; output:\n${out}${err}")
endif()
if(NOT out MATCHES "\"succeeded\":2")
  message(FATAL_ERROR "the submit's summary lacks \"succeeded\":2; output:\n${out}${err}")
endif()
