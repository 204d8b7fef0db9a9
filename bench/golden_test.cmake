# Runs one harness at the smoke preset and byte-compares its stdout with
# the committed golden (bench/testdata/<harness>.smoke.txt).
#
#   cmake -DHARNESS=<binary> -DGOLDEN=<file> -P golden_test.cmake
execute_process(COMMAND ${HARNESS} --smoke --jobs 2
                OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${HARNESS} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; got:\n${actual}")
endif()
