# Golden conformance check for one registered algorithm id.
#
#   cmake -DCLI=<sa_opt_cli> -DID=<id> -DRANKS=<P> -DDATA=<file.libsvm>
#         -DGOLDEN=<file> [-DUPDATE=ON] -P check_golden.cmake
#
# Runs `sa_opt_cli <ID> <DATA> --ranks <P> --kernel-isa scalar` with a
# fixed trace cadence and keeps only the deterministic lines: the trace
# points, the run summary with its wall time cut off, and the `stopped:`
# line.  The result must equal GOLDEN byte for byte; with UPDATE=ON the
# golden is (re)written instead.
foreach(var CLI ID RANKS DATA GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${CLI} ${ID} ${DATA} --ranks ${RANKS} --kernel-isa scalar
          --trace-every 20 -H 400
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sa_opt_cli ${ID} --ranks ${RANKS} exited ${rc}:\n${err}")
endif()

string(REPLACE "\n" ";" lines "${out}")
set(kept "")
foreach(line IN LISTS lines)
  if(line MATCHES "^ *[0-9]+ +[-+0-9.eE]+$" OR line MATCHES "^stopped: ")
    string(APPEND kept "${line}\n")
  elseif(line MATCHES "^iterations=")
    string(REGEX REPLACE " wall_seconds=.*$" "" line "${line}")
    string(APPEND kept "${line}\n")
  endif()
endforeach()

if(UPDATE)
  file(WRITE ${GOLDEN} "${kept}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()
file(READ ${GOLDEN} expected)
if(NOT kept STREQUAL expected)
  message(FATAL_ERROR "golden mismatch for ${ID} at ${RANKS} rank(s)\n"
                      "--- expected (${GOLDEN})\n${expected}"
                      "--- got\n${kept}")
endif()
