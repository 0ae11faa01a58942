# Runs BIN (with the optional ARGS list) and compares its stdout byte
# for byte with the committed GOLDEN file. The actual output is left
# at ACTUAL, so after a failure `diff GOLDEN ACTUAL` shows what moved.
#
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DACTUAL=<file>
#         [-DARGS=<arg;arg;...>] [-DJSON_GOLDEN=<file> -DJSON_ACTUAL=<name>]
#         -P compare_stdout.cmake
#
# BIN runs in the directory holding ACTUAL. With JSON_GOLDEN set, the
# file BIN wrote at JSON_ACTUAL (relative to that directory; pass the
# same relative name in ARGS so stdout's "wrote <path>" line is stable)
# is compared with JSON_GOLDEN as well.
foreach(var BIN GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()
get_filename_component(workdir ${ACTUAL} DIRECTORY)

execute_process(COMMAND ${BIN} ${ARGS} OUTPUT_FILE ${ACTUAL} WORKING_DIRECTORY ${workdir}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
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
