# triad_sim and triad_campaign must build the same scenario from the
# same recipe: a single triad_sim run's --metrics/--trace files and a
# one-seed triad_campaign run's --metrics-dir run_0.prom/run_0.jsonl are
# byte-identical. Both tools map the scenario-axis names (attack,
# policy, environment) to a ScenarioConfig on their own, so this pins
# that the two mappings agree. Run by the `sim-campaign-parity` ctest
# entry (see examples/CMakeLists.txt).
# Inputs: -DTRIAD_SIM=<binary> -DCAMPAIGN=<binary> -DWORK_DIR=<dir>.

# check_recipe(NAME [BOTH flags...] [SIM flags...] [CAMPAIGN flags...]):
# BOTH goes to both tools, SIM and CAMPAIGN to one each (triad_sim takes
# --env once per node, the campaign once for the whole axis).
function(check_recipe name)
  cmake_parse_arguments(PARSE_ARGV 1 arg "" "" "BOTH;SIM;CAMPAIGN")
  set(out ${WORK_DIR}/parity_${name})
  file(REMOVE_RECURSE ${out})
  execute_process(
    COMMAND ${TRIAD_SIM} --seed 9 --duration 90s ${arg_BOTH} ${arg_SIM}
            --metrics ${out}.prom --trace ${out}.jsonl
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "parity ${name}: triad_sim failed (rc=${rc})")
  endif()
  execute_process(
    COMMAND ${CAMPAIGN} --seeds 9 --duration 90s ${arg_BOTH} ${arg_CAMPAIGN}
            --metrics-dir ${out} --json ${out}/report.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "parity ${name}: triad_campaign failed (rc=${rc})")
  endif()
  foreach(kind prom jsonl)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${out}.${kind} ${out}/run_0.${kind}
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR
              "parity ${name}: triad_sim and triad_campaign .${kind} differ")
    endif()
  endforeach()
  message(STATUS "parity ${name}: metrics and trace byte-identical")
endfunction()

check_recipe(fminus_triadplus BOTH --attack fminus --policy triadplus
             --victim 1)
check_recipe(fplus_low BOTH --attack fplus --victim 2
             SIM --env low --env low --env low
             CAMPAIGN --env low)
