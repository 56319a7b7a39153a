# Offline == online, run by the `fleet-replay-parity` ctest entry (see
# examples/CMakeLists.txt). triad_mon ships a node's trace to --out-dir,
# byte for byte, with its per-node verdict; replaying the shipped trace
# through triad_trace must print that verdict byte for byte, because
# both render one forensic report from one replay.
# Inputs: -DMON=<triad_mon> -DTRACE=<triad_trace> -DFIXTURE=<trace.jsonl>
#         -DWORK_DIR=<dir>.
set(dir ${WORK_DIR}/fleet_replay_parity)
file(REMOVE_RECURSE ${dir})

execute_process(
  COMMAND ${MON} --from 3=${FIXTURE} --out-dir ${dir}
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet replay parity: triad_mon failed (rc=${rc})")
endif()

execute_process(
  COMMAND ${TRACE} ${dir}/node3.jsonl
  OUTPUT_FILE ${dir}/node3.replay.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet replay parity: triad_trace failed (rc=${rc})")
endif()

foreach(pair "${FIXTURE};node3.jsonl"
             "${dir}/node3.replay.txt;node3.forensic.txt")
  list(GET pair 0 got)
  list(GET pair 1 want)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${got} ${dir}/${want}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fleet replay parity: ${got} differs from "
                        "triad_mon's ${want}")
  endif()
endforeach()
message(STATUS "fleet replay parity ok")
