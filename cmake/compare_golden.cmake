# Runs a command and compares one of its outputs with a checked-in golden:
#
#   cmake -DGOLDEN=<file> -DOUTPUT=<file> [-DSTDOUT=ON] \
#         -P compare_golden.cmake -- <program> [args...]
#
# OUTPUT is the file the program writes; with STDOUT=ON the program's
# stdout is written there instead.  Fails when the program exits nonzero
# or OUTPUT differs from GOLDEN by a single byte, and then prints the first
# differing line of each.
cmake_minimum_required(VERSION 3.20)

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

get_filename_component(dir "${OUTPUT}" DIRECTORY)
file(MAKE_DIRECTORY "${dir}")
file(REMOVE "${OUTPUT}")
if(STDOUT)
  execute_process(COMMAND ${cmd} RESULT_VARIABLE rc ERROR_VARIABLE err
                  OUTPUT_FILE "${OUTPUT}")
else()
  execute_process(COMMAND ${cmd} RESULT_VARIABLE rc ERROR_VARIABLE err
                  OUTPUT_QUIET)
endif()
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "exit '${rc}'; stderr:\n${err}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}"
                        "${OUTPUT}"
                RESULT_VARIABLE differ)
if(differ STREQUAL "0")
  return()
endif()

# Walk both files line by line to the first difference.
file(READ "${GOLDEN}" want)
file(READ "${OUTPUT}" got)
set(line 1)
while(TRUE)
  string(FIND "${want}" "\n" wn)
  string(FIND "${got}" "\n" gn)
  if(wn EQUAL -1)
    set(wl "${want}")
  else()
    string(SUBSTRING "${want}" 0 ${wn} wl)
  endif()
  if(gn EQUAL -1)
    set(gl "${got}")
  else()
    string(SUBSTRING "${got}" 0 ${gn} gl)
  endif()
  if(NOT wl STREQUAL gl OR wn EQUAL -1 OR gn EQUAL -1)
    break()
  endif()
  math(EXPR wn "${wn} + 1")
  math(EXPR gn "${gn} + 1")
  string(SUBSTRING "${want}" ${wn} -1 want)
  string(SUBSTRING "${got}" ${gn} -1 got)
  math(EXPR line "${line} + 1")
endwhile()
if(wl STREQUAL gl)
  set(wl "${wl} (one file ends here, the other goes on)")
endif()
message(FATAL_ERROR "${OUTPUT} differs from ${GOLDEN} at line ${line}:\n"
                    "  golden: ${wl}\n  output: ${gl}")
