// Scheme-polymorphic variation operators — the one dispatch point every
// optimizer (GeneticAlgorithm, Nsga2, hill climbing, simulated annealing)
// routes crossover and mutation through.
//
// Crossover is kind-agnostic: genes are tagged, self-contained records, so
// one-point and uniform crossover swap them wholesale (a MUX gene from
// parent A can land next to an RLL gene from parent B; decode repairs any
// resulting edge clashes). Mutation dispatches on the gene kind:
//
//   kMux     — flip the key bit, or re-sample a fresh valid site against
//              the OTHER MUX genes (the paper's operator, unchanged).
//   kRll     — flip the key bit (XOR <-> XNOR), or re-draw the locked wire
//              from the context's wire pool.
//   kAntiSat — re-seed the gene's derivation stream (new taps, key values
//              and splice location in one move; width is a structural
//              parameter and never mutated).
//
// A MUX or RLL move flips the key bit or re-draws with even odds.
//
// For MUX-only genotypes every operator consumes the exact RNG stream the
// optimizers drew historically — the pinned trajectory tests hold.
//
// To add a new locking scheme: add its GeneKind and decode arm
// (locking/compound.cpp), then teach mutate_gene() here its local moves —
// no optimizer code changes.
#pragma once

#include <utility>

#include "core/ga.hpp"
#include "locking/gene.hpp"
#include "locking/sites.hpp"
#include "util/rng.hpp"

namespace autolock::ga {

class GeneOps {
 public:
  /// `context` must outlive this object (it is the genotypes' design
  /// family: site sampling and wire pools come from it).
  explicit GeneOps(const lock::SiteContext& context) noexcept
      : context_(&context) {}

  /// Per-gene mutation pass: each gene mutates with `mutation_rate`
  /// probability (one local move, see file comment).
  void mutate(Genotype& genes, double mutation_rate, util::Rng& rng) const;

  /// Single-gene neighbourhood move (hill climbing / annealing): mutates
  /// one uniformly chosen gene. No-op on empty genotypes.
  void mutate_one(Genotype& genes, util::Rng& rng) const;

  /// One-point or uniform crossover with probability `crossover_rate`;
  /// parents of unequal or sub-2 length pass through unchanged (and draw
  /// nothing).
  std::pair<Genotype, Genotype> crossover(const Genotype& a, const Genotype& b,
                                          CrossoverOp op,
                                          double crossover_rate,
                                          util::Rng& rng) const;

 private:
  void mutate_gene(Genotype& genes, std::size_t i, util::Rng& rng) const;

  const lock::SiteContext* context_;
};

}  // namespace autolock::ga
