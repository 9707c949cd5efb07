// DIMACS CNF reader.
//
// Lets the solver ingest standard CNF benchmarks (the tests/data/*.cnf
// fixtures). The reader is strict: malformed headers, out-of-range
// literals, unterminated clauses, and clause-count mismatches are rejected
// with std::runtime_error rather than silently patched up.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sat/clause_allocator.hpp"

namespace autolock::sat {

class Solver;

/// A CNF in the solver's internal literal encoding (lit = 2*var + sign).
struct DimacsCnf {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

/// DIMACS literal (±(var+1), never 0) -> internal literal.
constexpr Lit from_dimacs(int dimacs_lit) noexcept {
  return dimacs_lit < 0 ? make_lit(-dimacs_lit - 1, true)
                        : make_lit(dimacs_lit - 1, false);
}

/// Parses a DIMACS CNF stream. Comment lines ('c ...'), blank lines, and a
/// trailing '%' end-marker (SATLIB convention) are ignored. Clauses may
/// span lines or share one. Throws std::runtime_error on malformed input.
DimacsCnf read_dimacs(std::istream& in);
DimacsCnf read_dimacs_file(const std::string& path);

/// Declares any missing variables on `solver` and adds every clause.
/// Returns false if the formula is unsatisfiable at level 0 (same contract
/// as Solver::add_clause).
bool load_into(Solver& solver, const DimacsCnf& cnf);

}  // namespace autolock::sat
