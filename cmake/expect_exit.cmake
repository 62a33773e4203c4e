# Runs a command and checks how it ended:
#
#   cmake -DEXIT_CODE=<n> -DSTDERR_REGEX=<regex> -P expect_exit.cmake \
#         -- <program> [args...]
#
# Fails unless the program exits with exactly EXIT_CODE and its stderr
# matches STDERR_REGEX.  A ctest WILL_FAIL passes on any nonzero exit, a
# crash included; this does not.
set(cmd "")
set(after_dashes OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes ON)
  endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET)
if(NOT rc STREQUAL EXIT_CODE)
  message(FATAL_ERROR "exit '${rc}', expected ${EXIT_CODE}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
