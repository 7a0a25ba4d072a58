# Determinism gate for one bench or example: runs it once with ARGS_A and
# once with ARGS_B (space-separated argument strings), fails if either run
# exits non-zero, then byte-compares the two stdout captures. With GOLDEN
# set, run A must also match that checked-in file byte for byte; with the
# environment variable ASECK_GOLDEN_UPDATE=1 (the `golden-update` target)
# run A is written to GOLDEN instead of compared.
#
#   cmake -DEXE=<exe> "-DARGS_A=<args>" "-DARGS_B=<args>" -DOUT=<prefix>
#         [-DGOLDEN=<file>] -P determinism.cmake
#
# Registered as ctest `determinism.<name>` by aseck_determinism_test() in
# the top-level CMakeLists.txt; the captures stay at <prefix>.A.txt /
# <prefix>.B.txt for inspection.

foreach(run A B)
  separate_arguments(args UNIX_COMMAND "${ARGS_${run}}")
  execute_process(COMMAND "${EXE}" ${args}
                  OUTPUT_FILE "${OUT}.${run}.txt"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} ${ARGS_${run}} exited with ${rc}")
  endif()
endforeach()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUT}.A.txt" "${OUT}.B.txt"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "output differs between runs: diff ${OUT}.A.txt ${OUT}.B.txt")
endif()

if(NOT GOLDEN)
  return()
endif()
if("$ENV{ASECK_GOLDEN_UPDATE}" STREQUAL "1")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E copy "${OUT}.A.txt" "${GOLDEN}")
  message(STATUS "updated ${GOLDEN}")
  return()
endif()
if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "no golden ${GOLDEN}; build the golden-update target")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${OUT}.A.txt"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  # The diff goes straight to the test's output, unwrapped.
  execute_process(COMMAND diff -u "${GOLDEN}" "${OUT}.A.txt" ERROR_QUIET)
  message(FATAL_ERROR "output differs from its golden (diff above); "
                      "build golden-update if the change is intended")
endif()
