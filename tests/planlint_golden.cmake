# Runs planlint and fails unless its stdout equals the golden file byte for
# byte. Usage:
#   cmake -DPLANLINT=<planlint binary> -DGOLDEN=<golden file>
#         -P tests/planlint_golden.cmake
# The actual output is left in planlint.out in the working directory.
set(actual "${CMAKE_CURRENT_BINARY_DIR}/planlint.out")
execute_process(COMMAND "${PLANLINT}" OUTPUT_FILE "${actual}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "planlint exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}"
                        "${actual}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "planlint output differs from ${GOLDEN} (see ${actual})")
endif()
