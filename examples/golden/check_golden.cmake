# Runs one example and compares its stdout byte for byte with a golden
# capture. Every example here runs on the simulated clock with fixed
# seeds, so any difference is a change in simulated behaviour.
#
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<file.txt> -DACTUAL=<out.txt> \
#         -P check_golden.cmake
#
# To accept an intended change, overwrite the golden file with ACTUAL.
foreach(var EXAMPLE GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${EXAMPLE}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${ACTUAL}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
  file(READ "${ACTUAL}" got)
  message(FATAL_ERROR
    "${EXAMPLE} output differs from ${GOLDEN}; compare with\n"
    "  diff ${GOLDEN} ${ACTUAL}\n"
    "Output was:\n${got}")
endif()
