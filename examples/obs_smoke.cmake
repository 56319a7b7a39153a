# Observability smoke, run by the `obs-smoke` ctest entry (see
# examples/CMakeLists.txt). A short F- run of triad_sim must:
#   * export Prometheus text that scripts/check_prom.awk accepts, with
#     every detector series present and each family's kind matching the
#     R9 inventory (scripts/prom_families.txt);
#   * count as many triad_node_adoptions_total steps, summed over nodes,
#     as the summary's "adoption events:" line;
#   * keep every trace event: a dropped one would make any forensic
#     reconstruction of the trace unsound.
# Inputs: -DTRIAD_SIM=<binary> -DSCRIPTS=<repo>/scripts -DWORK_DIR=<dir>.
find_program(AWK awk REQUIRED)
set(prom ${WORK_DIR}/obs_smoke_metrics.prom)

execute_process(
  COMMAND ${TRIAD_SIM} --duration 2m --seed 9 --attack fminus
          --metrics ${prom} --trace ${WORK_DIR}/obs_smoke_trace.jsonl
  OUTPUT_VARIABLE summary
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "obs smoke: triad_sim failed (rc=${rc})")
endif()

execute_process(
  COMMAND ${AWK} -f ${SCRIPTS}/check_prom.awk -v require_detectors=1
          -v families=${SCRIPTS}/prom_families.txt ${prom}
  OUTPUT_VARIABLE verdict
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "obs smoke: metrics failed to parse: ${verdict}")
endif()

file(STRINGS ${prom} samples REGEX "^triad_node_adoptions_total")
set(adoptions_metric 0)
foreach(sample IN LISTS samples)
  string(REGEX REPLACE "^.* " "" value "${sample}")
  math(EXPR adoptions_metric "${adoptions_metric} + ${value}")
endforeach()
if(NOT summary MATCHES "adoption events: ([0-9]+)")
  message(FATAL_ERROR "obs smoke: no 'adoption events:' line in:\n${summary}")
endif()
if(NOT adoptions_metric EQUAL CMAKE_MATCH_1)
  message(FATAL_ERROR "obs smoke: adoption counter (${adoptions_metric}) "
                      "!= summary count (${CMAKE_MATCH_1})")
endif()

if(NOT summary MATCHES "trace events: ([0-9]+) \\(dropped ([0-9]+)\\)")
  message(FATAL_ERROR "obs smoke: no 'trace events:' line in:\n${summary}")
endif()
if(NOT CMAKE_MATCH_2 EQUAL 0)
  message(FATAL_ERROR "obs smoke: trace ring dropped ${CMAKE_MATCH_2} events")
endif()
message(STATUS "obs smoke ok: ${adoptions_metric} adoptions, "
               "${CMAKE_MATCH_1} trace events")
