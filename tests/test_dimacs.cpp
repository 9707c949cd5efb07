// DIMACS reader tests: fixture parsing, comment and blank-line handling,
// and strict rejection of malformed input.
#include "sat/dimacs.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sat/solver.hpp"

#ifndef AUTOLOCK_TEST_DATA_DIR
#define AUTOLOCK_TEST_DATA_DIR "tests/data"
#endif

namespace autolock::sat {
namespace {

std::string fixture(const std::string& name) {
  return std::string(AUTOLOCK_TEST_DATA_DIR) + "/" + name;
}

DimacsCnf parse(const std::string& text) {
  std::istringstream in(text);
  return read_dimacs(in);
}

TEST(Dimacs, LiteralConversion) {
  EXPECT_EQ(from_dimacs(1), make_lit(0, false));
  EXPECT_EQ(from_dimacs(-1), make_lit(0, true));
  EXPECT_EQ(from_dimacs(5), make_lit(4, false));
}

TEST(Dimacs, ReadsFixtureAndSolvesSat) {
  const DimacsCnf cnf = read_dimacs_file(fixture("simple_sat.cnf"));
  EXPECT_EQ(cnf.num_vars, 3);
  EXPECT_EQ(cnf.clauses.size(), 4u);
  Solver solver;
  EXPECT_TRUE(load_into(solver, cnf));
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  for (const auto& clause : cnf.clauses) {
    bool satisfied = false;
    for (const Lit lit : clause) satisfied |= solver.model_value_lit(lit);
    EXPECT_TRUE(satisfied);
  }
}

TEST(Dimacs, ReadsFixtureAndSolvesUnsat) {
  for (const char* name : {"simple_unsat.cnf", "php_3_2.cnf"}) {
    const DimacsCnf cnf = read_dimacs_file(fixture(name));
    Solver solver;
    load_into(solver, cnf);
    EXPECT_EQ(solver.solve(), SolveResult::kUnsat) << name;
  }
}

TEST(Dimacs, HandlesCommentsBlankLinesAndSplitClauses) {
  const DimacsCnf cnf = parse(
      "c header comment\n"
      "\n"
      "p cnf 4 3\n"
      "c clauses may span lines:\n"
      "1 2\n"
      "3 0\n"
      "\n"
      "-1 -2 0 -3 4 0\n"  // two clauses on one line
      "% trailing SATLIB marker\n"
      "0\n");
  EXPECT_EQ(cnf.num_vars, 4);
  ASSERT_EQ(cnf.clauses.size(), 3u);
  EXPECT_EQ(cnf.clauses[0].size(), 3u);
  EXPECT_EQ(cnf.clauses[1].size(), 2u);
  EXPECT_EQ(cnf.clauses[2], (std::vector<Lit>{from_dimacs(-3),
                                              from_dimacs(4)}));
}

TEST(Dimacs, RejectsMalformedHeaders) {
  EXPECT_THROW(parse("p dnf 2 1\n1 2 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf x 1\n1 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf 2\n1 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf 2 1 junk\n1 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf -2 1\n1 0\n"), std::runtime_error);
  // Duplicate header.
  EXPECT_THROW(parse("p cnf 2 1\np cnf 2 1\n1 0\n"), std::runtime_error);
  // Clause before header / missing header entirely.
  EXPECT_THROW(parse("1 2 0\n"), std::runtime_error);
  EXPECT_THROW(parse("c only comments\n"), std::runtime_error);
}

TEST(Dimacs, RejectsMalformedClauses) {
  // Literal exceeding the declared variable count.
  EXPECT_THROW(parse("p cnf 2 1\n1 3 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf 2 1\n-5 0\n"), std::runtime_error);
  // Non-integer token.
  EXPECT_THROW(parse("p cnf 2 1\n1 two 0\n"), std::runtime_error);
  // Unterminated clause at EOF.
  EXPECT_THROW(parse("p cnf 2 1\n1 2\n"), std::runtime_error);
  // Clause-count mismatch in both directions.
  EXPECT_THROW(parse("p cnf 2 2\n1 0\n"), std::runtime_error);
  EXPECT_THROW(parse("p cnf 2 1\n1 0\n2 0\n"), std::runtime_error);
}

TEST(Dimacs, EmptyClauseIsReadAndUnsat) {
  const DimacsCnf cnf = parse("p cnf 1 2\n1 0\n0\n");
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_TRUE(cnf.clauses[1].empty());
  Solver solver;
  EXPECT_FALSE(load_into(solver, cnf));
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
}

}  // namespace
}  // namespace autolock::sat
