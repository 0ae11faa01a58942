# Runs BIN (with the optional space-separated ARGS) and compares its stdout
# byte for byte with the committed GOLDEN file. The actual output is left
# at ACTUAL, so after a failure `diff GOLDEN ACTUAL` shows what moved.
#
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DACTUAL=<file>
#         [-DARGS=<"arg arg ...">] [-DJSON_GOLDEN=<file> -DJSON_ACTUAL=<name>]
#         [-DCOUNTER=<name>]
#         -P compare_stdout.cmake
#
# BIN runs in the directory holding ACTUAL. With JSON_GOLDEN set, the
# file BIN wrote at JSON_ACTUAL (relative to that directory; pass the
# same relative name in ARGS so stdout's "wrote <path>" line is stable)
# is compared with JSON_GOLDEN as well. With COUNTER set, stdout is
# google-benchmark JSON and only its "<benchmark name> <COUNTER value>"
# lines are compared (the rest carries host, date and timings).
foreach(var BIN GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()
if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "${BIN} has no golden: record one at ${GOLDEN} "
                      "(see the anchor comment in CMakeLists.txt)")
endif()
get_filename_component(workdir ${ACTUAL} DIRECTORY)
separate_arguments(ARGS UNIX_COMMAND "${ARGS}")

execute_process(COMMAND ${BIN} ${ARGS} OUTPUT_FILE ${ACTUAL} WORKING_DIRECTORY ${workdir}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

if(DEFINED COUNTER)
  file(READ ${ACTUAL} json)
  string(JSON count LENGTH "${json}" benchmarks)
  math(EXPR last "${count} - 1")
  set(lines "")
  foreach(i RANGE ${last})
    string(JSON value ERROR_VARIABLE missing GET "${json}" benchmarks ${i} ${COUNTER})
    if(NOT missing)
      string(JSON name GET "${json}" benchmarks ${i} name)
      string(APPEND lines "${name} ${value}\n")
    endif()
  endforeach()
  file(WRITE ${ACTUAL} "${lines}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()

if(DEFINED JSON_GOLDEN)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${JSON_GOLDEN}
                          ${workdir}/${JSON_ACTUAL}
                  RESULT_VARIABLE json_differs)
  if(json_differs)
    message(FATAL_ERROR "JSON of ${BIN} differs from ${JSON_GOLDEN}\n"
                        "  diff ${JSON_GOLDEN} ${workdir}/${JSON_ACTUAL}")
  endif()
endif()
