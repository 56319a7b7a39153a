# Pins one paper bench to EXPERIMENTS.md; run by the `paper-<bench>`
# ctest entries (bench/CMakeLists.txt, label `paper`). The bench's
# markdown rows (its stdout lines that start with `|`) must equal, in
# order, the `|` lines of every EXPERIMENTS.md section whose heading
# names the bench in backticks. Fails on the first row that differs or
# is missing on either side, and names it.
# Inputs: -DBENCH=<binary> -DNAME=<bench name> -DDOC=<EXPERIMENTS.md>.

# The text's lines as a CMake list of its `|` lines. `;`, `[` and `]`
# would split or merge list elements, so they travel as placeholders
# until a row is printed.
function(table_lines text out_var)
  string(REPLACE ";" "<semicolon>" text "${text}")
  string(REPLACE "[" "<lbracket>" text "${text}")
  string(REPLACE "]" "<rbracket>" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

function(shown row out_var)
  string(REPLACE "<semicolon>" ";" row "${row}")
  string(REPLACE "<lbracket>" "[" row "${row}")
  string(REPLACE "<rbracket>" "]" row "${row}")
  set(${out_var} "${row}" PARENT_SCOPE)
endfunction()

execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} failed (rc=${rc})")
endif()
table_lines("${out}" lines)
set(printed "")
foreach(line IN LISTS lines)
  if(line MATCHES "^\\|")
    list(APPEND printed "${line}")
  endif()
endforeach()

file(READ ${DOC} doc)
table_lines("${doc}" lines)
set(pinned "")
set(in_section FALSE)
foreach(line IN LISTS lines)
  if(line MATCHES "^#")
    string(FIND "${line}" "`${NAME}`" at)
    if(at EQUAL -1)
      set(in_section FALSE)
    else()
      set(in_section TRUE)
    endif()
  elseif(in_section AND line MATCHES "^\\|")
    list(APPEND pinned "${line}")
  endif()
endforeach()

list(LENGTH printed n_printed)
list(LENGTH pinned n_pinned)
if(n_printed EQUAL 0)
  message(FATAL_ERROR "${NAME} printed no table rows")
endif()
if(n_pinned EQUAL 0)
  message(FATAL_ERROR "no EXPERIMENTS.md section names `${NAME}` "
                      "or holds table rows")
endif()
set(n ${n_printed})
if(n_pinned GREATER n)
  set(n ${n_pinned})
endif()
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
  math(EXPR row_no "${i} + 1")
  if(i GREATER_EQUAL n_printed)
    list(GET pinned ${i} want)
    shown("${want}" want)
    message(FATAL_ERROR "${NAME}: EXPERIMENTS.md row ${row_no} is not "
                        "printed by the bench:\n  ${want}")
  endif()
  list(GET printed ${i} got)
  shown("${got}" got)
  if(i GREATER_EQUAL n_pinned)
    message(FATAL_ERROR "${NAME}: printed row ${row_no} is missing from "
                        "EXPERIMENTS.md:\n  ${got}")
  endif()
  list(GET pinned ${i} want)
  shown("${want}" want)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${NAME}: row ${row_no} differs\n"
                        "  printed:        ${got}\n"
                        "  EXPERIMENTS.md: ${want}")
  endif()
endforeach()
message(STATUS "${NAME}: ${n_printed} rows match EXPERIMENTS.md")
