# Run one command and require its output to match a committed golden
# file byte for byte.
#
#   cmake -DCMD=<exe|arg|...> -DACTUAL=<file> -DEXPECTED=<file>
#         [-DSTDOUT=1] -P golden_diff.cmake
#
# CMD separates its arguments with '|'. With STDOUT set, the
# command's standard output is written to ACTUAL; otherwise the
# command itself writes ACTUAL (e.g. through a --json option).
string(REPLACE "|" ";" cmd "${CMD}")
file(REMOVE "${ACTUAL}")
if(STDOUT)
    execute_process(COMMAND ${cmd} OUTPUT_FILE "${ACTUAL}"
        RESULT_VARIABLE rc)
else()
    execute_process(COMMAND ${cmd} OUTPUT_QUIET RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${cmd}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${ACTUAL}" "${EXPECTED}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${ACTUAL} differs from ${EXPECTED}")
endif()
