# ctest bench_json_missing_dir: runs the bench BENCH with `--json DIR`, where
# DIR does not exist. Passes only when the bench exits with a non-zero status
# of its own (a crash does not count), prints no result first, and writes no
# file.
#
#   cmake -DBENCH=<bench binary> -DDIR=<missing dir> -P json_missing_dir_test.cmake
file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${BENCH}" --json "${DIR}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status MATCHES "^[1-9][0-9]*$")
  message(FATAL_ERROR "expected a non-zero exit status, got '${status}'\n${err}")
endif()
if(EXISTS "${DIR}")
  message(FATAL_ERROR "the bench created ${DIR}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "the bench ran before it failed:\n${out}")
endif()
message(STATUS "exit status ${status}: ${err}")
