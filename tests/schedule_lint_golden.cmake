# Runs schedule_lint and fails unless it exits 0 and its stdout equals the
# committed golden byte for byte: every scenario's node and edge counts,
# critical path, makespan and overlap figures. A change that moves any of
# them refreshes tests/data/schedule_lint.golden and says why.
#
#   cmake -DTOOL=<schedule_lint> -DGOLDEN=<tests/data/schedule_lint.golden>
#         -DOUT=<file for the actual stdout> -P schedule_lint_golden.cmake
execute_process(COMMAND "${TOOL}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "schedule_lint exited ${rc}\n${out}${err}")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  file(WRITE "${OUT}" "${out}")
  message(FATAL_ERROR "schedule_lint stdout differs from ${GOLDEN}; "
                      "diff it against ${OUT}:\n${out}")
endif()
message(STATUS "schedule_lint stdout matches ${GOLDEN}")
