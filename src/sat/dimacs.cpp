#include "sat/dimacs.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sat/solver.hpp"

namespace autolock::sat {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("dimacs: line " + std::to_string(line_no) + ": " +
                           what);
}

}  // namespace

DimacsCnf read_dimacs(std::istream& in) {
  DimacsCnf cnf;
  bool have_header = false;
  long declared_clauses = 0;
  std::vector<Lit> current;  // clause under construction (may span lines)
  std::string line;
  std::size_t line_no = 0;
  bool done = false;

  while (!done && std::getline(in, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string tok;
    if (!(tokens >> tok)) continue;  // blank line
    if (tok == "c" || tok[0] == 'c') continue;
    if (tok[0] == '%') {  // SATLIB end marker: ignore the rest of the file
      done = true;
      continue;
    }
    if (tok == "p") {
      if (have_header) fail(line_no, "duplicate 'p' header");
      std::string fmt;
      if (!(tokens >> fmt) || fmt != "cnf") {
        fail(line_no, "expected 'p cnf <vars> <clauses>'");
      }
      long vars = -1;
      if (!(tokens >> vars >> declared_clauses) || vars < 0 ||
          declared_clauses < 0) {
        fail(line_no, "malformed 'p cnf' counts");
      }
      if (tokens >> tok) fail(line_no, "trailing junk after header");
      cnf.num_vars = static_cast<int>(vars);
      cnf.clauses.reserve(static_cast<std::size_t>(declared_clauses));
      have_header = true;
      continue;
    }
    if (!have_header) fail(line_no, "clause before 'p cnf' header");
    // Literal tokens; 0 terminates a clause.
    do {
      char* end = nullptr;
      const long value = std::strtol(tok.c_str(), &end, 10);
      if (end == tok.c_str() || *end != '\0') {
        fail(line_no, "expected integer literal, got '" + tok + "'");
      }
      if (value == 0) {
        cnf.clauses.push_back(current);
        current.clear();
        continue;
      }
      const long var = value < 0 ? -value : value;
      if (var > cnf.num_vars) {
        fail(line_no, "literal " + std::to_string(value) +
                          " exceeds declared variable count");
      }
      current.push_back(from_dimacs(static_cast<int>(value)));
    } while (tokens >> tok);
  }

  if (!have_header) throw std::runtime_error("dimacs: missing 'p cnf' header");
  if (!current.empty()) {
    throw std::runtime_error("dimacs: unterminated clause (missing 0)");
  }
  if (static_cast<long>(cnf.clauses.size()) != declared_clauses) {
    throw std::runtime_error(
        "dimacs: header declares " + std::to_string(declared_clauses) +
        " clauses, found " + std::to_string(cnf.clauses.size()));
  }
  return cnf;
}

DimacsCnf read_dimacs_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("dimacs: cannot open " + path);
  return read_dimacs(in);
}

bool load_into(Solver& solver, const DimacsCnf& cnf) {
  solver.reserve_vars(static_cast<std::size_t>(cnf.num_vars));
  while (solver.num_vars() < static_cast<std::size_t>(cnf.num_vars)) {
    solver.new_var();
  }
  bool ok = true;
  for (const auto& clause : cnf.clauses) {
    ok = solver.add_clause(clause) && ok;
  }
  return ok;
}

}  // namespace autolock::sat
