# Script mode (cmake -P): writes OUT, a header with the git revision of
# SOURCE_DIR and the build flags passed in as FLAGS. The bench harnesses
# stamp both into their BENCH_*.json artifacts. It runs at every build;
# configure_file(COPYONLY) leaves OUT untouched when nothing changed, so
# an unchanged tree rebuilds nothing.
set(sha "unknown")
find_package(Git QUIET)
if(GIT_FOUND)
  execute_process(COMMAND ${GIT_EXECUTABLE} rev-parse HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE head RESULT_VARIABLE rc
    OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
  if(rc EQUAL 0)
    set(sha ${head})
    # Tracked files that differ from HEAD mark the measurement as taken
    # on an uncommitted tree.
    execute_process(COMMAND ${GIT_EXECUTABLE} status --porcelain
        --untracked-files=no
      WORKING_DIRECTORY ${SOURCE_DIR}
      OUTPUT_VARIABLE changes OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
    if(NOT changes STREQUAL "")
      set(sha "${sha}-dirty")
    endif()
  endif()
endif()
foreach(var sha FLAGS)
  string(REPLACE "\\" "\\\\" ${var} "${${var}}")
  string(REPLACE "\"" "\\\"" ${var} "${${var}}")
endforeach()
file(WRITE ${OUT}.tmp
  "#pragma once\n"
  "#define LIGHTRIDGE_BENCH_GIT_SHA \"${sha}\"\n"
  "#define LIGHTRIDGE_BENCH_BUILD_FLAGS \"${FLAGS}\"\n")
configure_file(${OUT}.tmp ${OUT} COPYONLY)
