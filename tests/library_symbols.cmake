# Fails if libautolock defines a symbol that belongs to the tests or was
# deleted: the reference oracles live in tests/support and link into the
# test binaries only.
#
#   cmake -DLIBRARY=<libautolock.a> -DNM=<nm> -P tests/library_symbols.cmake
#
# Signatures are compared with every space removed, so the demangler's
# "> >" and ">>" spellings read the same. A forbidden entry matches every
# symbol that starts with it (clones and local lambdas included); an entry
# ending in ")" names one overload exactly, so the scratch forms of predict
# and train_epoch do not match the allocating ones.
if(NOT LIBRARY OR NOT NM)
  message(FATAL_ERROR "usage: cmake -DLIBRARY=<archive> -DNM=<nm> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(forbidden
  "autolock::netlist::Simulator::output_error_rate("
  "autolock::netlist::Simulator::equivalent_exhaustive("
  "autolock::lock::testing::applicable_to_working_dfs("
  "autolock::lock::DecodeTopo::depends_on("
  "autolock::attack::AttackGraph::adjacency_lists("
  "autolock::attack::Subgraph::dense_features("
  "autolock::attack::extract_subgraph("
  "autolock::attack::Gnn::predict(autolock::attack::Subgraph const&) const"
  "autolock::attack::Gnn::train_epoch(std::vector<autolock::attack::Subgraph, std::allocator<autolock::attack::Subgraph> > const&, std::vector<unsigned long, std::allocator<unsigned long> > const&)"
  "autolock::util::Rng::next_gaussian("
  "autolock::util::Timer::elapsed_ms(")

# What production runs must still be there; this also keeps an empty or
# unreadable symbol table from passing.
set(required
  "autolock::attack::extract_subgraph_into("
  "autolock::attack::Gnn::predict(autolock::attack::Subgraph const&, autolock::attack::GnnScratch&) const"
  "autolock::attack::Gnn::train_epoch(std::vector<autolock::attack::Subgraph, std::allocator<autolock::attack::Subgraph> > const&, std::vector<unsigned long, std::allocator<unsigned long> > const&, autolock::attack::GnnScratch&)"
  "autolock::netlist::Simulator::run_word_into(")

execute_process(COMMAND ${NM} -C --defined-only ${LIBRARY}
                OUTPUT_VARIABLE symbols
                RESULT_VARIABLE nm_status)
if(NOT nm_status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${LIBRARY} (${nm_status})")
endif()

# One "<address> <type> <name>" line per symbol: keep the names, one per
# line, each preceded by a newline so a prefix search anchors at its start.
string(REGEX REPLACE "(^|\n)[0-9a-fA-F]* *[A-Za-z] " "\\1" names "${symbols}")
string(REPLACE " " "" names "\n${names}")

function(defined_with_prefix prefix out)
  string(REPLACE " " "" key "${prefix}")
  string(FIND "${names}" "\n${key}" position)
  if(position EQUAL -1)
    set(${out} "" PARENT_SCOPE)
  else()
    # Report the whole line of the first match.
    math(EXPR position "${position} + 1")
    string(SUBSTRING "${names}" ${position} -1 rest)
    string(FIND "${rest}" "\n" line_end)
    string(SUBSTRING "${rest}" 0 ${line_end} name)
    set(${out} "${name}" PARENT_SCOPE)
  endif()
endfunction()

set(failures 0)
foreach(entry IN LISTS forbidden)
  defined_with_prefix("${entry}" found)
  if(found)
    message(SEND_ERROR "libautolock defines ${entry}: ${found}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
foreach(entry IN LISTS required)
  defined_with_prefix("${entry}" found)
  if(NOT found)
    message(SEND_ERROR "libautolock does not define ${entry}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} symbol check(s) failed in ${LIBRARY}")
endif()
message(STATUS "no test oracle or deleted API in ${LIBRARY}")
