# triad_sim and triad_campaign must build the same scenario from the
# same recipe: a single triad_sim run's --metrics/--trace files and a
# one-seed triad_campaign run's --metrics-dir run_0.prom/run_0.jsonl are
# byte-identical. Both tools turn their flags into a RunSpec and build
# it with the one campaign::build_scenario, which maps the axis names
# (attack, policy, environment) through exp/axes.h; triad_sim adds its
# deployment flags in a configure hook. The recipes stay as the
# regression oracle for that shared path: each flag mapping into the
# RunSpec, and the hook, must leave the bytes unchanged. Run by the
# `sim-campaign-parity` ctest entry (see examples/CMakeLists.txt).
# Inputs: -DTRIAD_SIM=<binary> -DCAMPAIGN=<binary> -DWORK_DIR=<dir>.

# check_recipe(NAME [DURATION d] [EXPECT regex] [BOTH flags...]
#              [SIM flags...] [CAMPAIGN flags...]):
# BOTH goes to both tools, SIM and CAMPAIGN to one each (triad_sim takes
# --env once per node, the campaign once for the whole axis). DURATION
# defaults to 90s. EXPECT is a regex the trace must match: a recipe that
# exists to exercise some behaviour fails once it no longer does.
function(check_recipe name)
  cmake_parse_arguments(PARSE_ARGV 1 arg "" "DURATION;EXPECT"
                        "BOTH;SIM;CAMPAIGN")
  if(NOT arg_DURATION)
    set(arg_DURATION 90s)
  endif()
  set(out ${WORK_DIR}/parity_${name})
  file(REMOVE_RECURSE ${out})
  execute_process(
    COMMAND ${TRIAD_SIM} --seed 9 --duration ${arg_DURATION} ${arg_BOTH}
            ${arg_SIM}
            --metrics ${out}.prom --trace ${out}.jsonl
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "parity ${name}: triad_sim failed (rc=${rc})")
  endif()
  execute_process(
    COMMAND ${CAMPAIGN} --seeds 9 --duration ${arg_DURATION} ${arg_BOTH}
            ${arg_CAMPAIGN}
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
  if(arg_EXPECT)
    file(READ ${out}.jsonl trace)
    if(NOT trace MATCHES "${arg_EXPECT}")
      message(FATAL_ERROR "parity ${name}: trace lacks ${arg_EXPECT}")
    endif()
  endif()
  message(STATUS "parity ${name}: metrics and trace byte-identical")
endfunction()

check_recipe(fminus_triadplus BOTH --attack fminus --policy triadplus
             --victim 1)
check_recipe(fplus_low BOTH --attack fplus --victim 2
             SIM --env low --env low --env low
             CAMPAIGN --env low)

# `low` nodes share their machine's interrupt hub; `none` nodes are not
# registered with it. The two write the same bytes until the hub first
# fires, which for seed 9 is at ~326 s, so only a run past that point
# tells the environments apart. EXPECT pins that it still does.
check_recipe(low_machine_interrupt DURATION 6m EXPECT "\"type\":\"aex\""
             SIM --env low --env low --env low
             CAMPAIGN --env low)

# The RunSpec fields no other recipe sets: cluster size, attack delay
# and machine interrupts. --victim 2 covers the flag itself; without it
# both tools attack the last node.
check_recipe(five_nodes_fplus BOTH --nodes 5 --victim 2 --attack fplus
             --attack-delay 50ms --no-machine-interrupts)
