# triad_timed's Prometheus exit dump, run by the `timed-prom` ctest
# entry (see examples/CMakeLists.txt). A node and a TA each run 0.2 s
# with the online detectors on, on ephemeral loopback ports, and write
# --metrics; scripts/check_prom.awk must accept both pages with every
# detector series present and each family's kind matching the R9
# inventory (scripts/prom_families.txt). The node's TA address answers
# nothing, so its page is the one an uncalibrated node serves. Prints
# "SKIPPED" (the entry's SKIP_REGULAR_EXPRESSION) when loopback cannot
# bind.
# Inputs: -DTIMED=<binary> -DSCRIPTS=<repo>/scripts -DWORK_DIR=<dir>.
find_program(AWK awk REQUIRED)

foreach(role node ta)
  set(prom ${WORK_DIR}/timed_prom_${role}.prom)
  if(role STREQUAL "node")
    set(identity --id 1 --serve 127.0.0.1:0 --peer 9=127.0.0.1:9)
  else()
    set(identity --id 9)
  endif()
  execute_process(
    COMMAND ${TIMED} --role ${role} ${identity} --listen 127.0.0.1:0
            --detectors --duration 0.2 --metrics ${prom}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    if(out MATCHES "protocol endpoint: ")
      message(STATUS "SKIPPED: no loopback sockets: ${out}")
      return()
    endif()
    message(FATAL_ERROR "timed prom: triad_timed --role ${role} failed "
                        "(rc=${rc}):\n${out}")
  endif()
  execute_process(
    COMMAND ${AWK} -f ${SCRIPTS}/check_prom.awk -v require_detectors=1
            -v families=${SCRIPTS}/prom_families.txt ${prom}
    OUTPUT_VARIABLE verdict
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "timed prom: ${role} metrics rejected: ${verdict}")
  endif()
endforeach()
message(STATUS "timed prom ok: node and TA pages pass check_prom")
