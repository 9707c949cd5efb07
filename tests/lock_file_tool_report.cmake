# `lock_file_tool report` on a key too long to brute-force: generate c432,
# lock it with a K=16 D-MUX, and report the structural and SAT attacks. The
# tool must score against a proven reference key (no all-zero fallback), so
# the SAT row reads 100.0% accuracy and 100.0% precision.
#
#   cmake -DPROGRAM=<lock_file_tool> -DWORKDIR=<dir> -P lock_file_tool_report.cmake
#
# WORKDIR is emptied first and holds the generated .bench files.
foreach(var PROGRAM WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "lock_file_tool_report.cmake: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# Runs `PROGRAM <args>` in WORKDIR, requires exit 0, and leaves its stdout
# and stderr in `out`.
function(run_tool)
  execute_process(COMMAND "${PROGRAM}" ${ARGN}
                  WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  message("${stdout}${stderr}")
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "'lock_file_tool ${ARGN}' exited with '${status}'")
  endif()
  set(out "${stdout}${stderr}" PARENT_SCOPE)
endfunction()

run_tool(gen c432 c432.bench)
run_tool(lock c432.bench d16.bench 16 dmux 3)
run_tool(report d16.bench c432.bench structural sat)
if(out MATCHES "all-zero")
  message(FATAL_ERROR "report fell back to an all-zero reference key")
endif()
if(NOT out MATCHES "\nsat +100\\.0% +100\\.0% ")
  message(FATAL_ERROR "the sat row is not at 100.0% accuracy and precision")
endif()
