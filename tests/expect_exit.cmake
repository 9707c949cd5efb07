# Runs one command-line invocation and checks its exact exit code.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<space-separated args>" -DEXPECT=<code>
#         -DWORKDIR=<dir> -P expect_exit.cmake
#
# The command runs in WORKDIR, which is emptied first; the check also fails
# if the command leaves any file behind there (argument errors and --help
# must not run anything, so they must not write anything either, and the
# smoke runs print their tables without writing files).
foreach(var PROGRAM EXPECT WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_exit.cmake: ${var} is not set")
  endif()
endforeach()

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${PROGRAM}" ${arg_list}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "'${PROGRAM} ${ARGS}' exited with '${status}', "
                      "expected ${EXPECT}")
endif()
file(GLOB leftovers "${WORKDIR}/*")
if(leftovers)
  message(FATAL_ERROR "'${PROGRAM} ${ARGS}' wrote files: ${leftovers}")
endif()
