# Runs one program and byte-compares its stdout with a committed golden
# (bench/testdata/<harness>.smoke.txt, examples/testdata/<example>.txt).
#
#   cmake -DHARNESS=<binary> "-DARGS=<arguments>" -DGOLDEN=<file>
#         -P golden_test.cmake
#
# ARGS is one space-separated string, e.g. "--smoke --jobs 2".
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${HARNESS} ${args}
                OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${HARNESS} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; got:\n${actual}")
endif()
