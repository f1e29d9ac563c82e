# Replays each bad repro file in tests/data with fuzz_schedule --repro and
# fails unless every run exits 2 with a message naming the file, the line
# and the key. A mistyped repro file must not replay some other world.
#
#   cmake -DTOOL=<fuzz_schedule> -DDATA=<tests/data> -P fuzz_bad_repro.cmake
set(cases
  "bad_repro_unknown_key.txt:15: unknown key 'ghsot'"
  "bad_repro_malformed_value.txt:6: key 'num_devices' has a malformed value 'two'")
foreach(case IN LISTS cases)
  string(REGEX MATCH "^[^:]+" file "${case}")
  execute_process(COMMAND "${TOOL}" "--repro=${DATA}/${file}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${file}: expected exit 2, got ${rc}\n${out}${err}")
  endif()
  string(FIND "${err}" "${DATA}/${case}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${file}: expected '${case}' on stderr, got\n${err}")
  endif()
  message(STATUS "${file}: rejected with exit 2")
endforeach()
