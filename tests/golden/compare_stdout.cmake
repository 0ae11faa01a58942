# Runs BIN and compares its stdout byte for byte with the committed
# GOLDEN file. The actual output is left at ACTUAL, so after a failure
# `diff GOLDEN ACTUAL` shows what moved.
#
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P compare_stdout.cmake
foreach(var BIN GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${BIN} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
