#include "core/gene_ops.hpp"

#include <vector>

namespace autolock::ga {

using lock::Gene;
using lock::GeneKind;

void GeneOps::mutate_gene(Genotype& genes, std::size_t i,
                          double key_flip_rate, util::Rng& rng) const {
  switch (genes[i].kind) {
    case GeneKind::kMux: {
      if (rng.next_bool(key_flip_rate)) {
        genes[i].key_bit = !genes[i].key_bit;
        return;
      }
      // Re-sample the site against the other MUX genes, which sample_site
      // picks out of the rest (approximate: collisions with later genes are
      // resolved by decode-time repair).
      Genotype others = genes;
      others.erase(others.begin() + static_cast<std::ptrdiff_t>(i));
      Gene fresh;
      if (context_->sample_site(rng, others, fresh)) genes[i] = fresh;
      return;
    }
    case GeneKind::kRll: {
      if (rng.next_bool(key_flip_rate)) {
        genes[i].key_bit = !genes[i].key_bit;  // XOR <-> XNOR
        return;
      }
      const auto& pool = context_->rll_wires();
      if (!pool.empty()) {
        const auto& wire = pool[rng.next_below(pool.size())];
        genes[i].f_i = wire.first;
        genes[i].g_i = wire.second;
      }
      return;
    }
    case GeneKind::kAntiSat:
      // One move re-derives the whole block (taps, key values, splice).
      genes[i].seed = rng();
      return;
  }
}

void GeneOps::mutate(Genotype& genes, double mutation_rate,
                     double key_flip_rate, util::Rng& rng) const {
  for (std::size_t i = 0; i < genes.size(); ++i) {
    if (!rng.next_bool(mutation_rate)) continue;
    mutate_gene(genes, i, key_flip_rate, rng);
  }
}

void GeneOps::mutate_one(Genotype& genes, double key_flip_rate,
                         util::Rng& rng) const {
  if (genes.empty()) return;
  mutate_gene(genes, rng.next_below(genes.size()), key_flip_rate, rng);
}

std::pair<Genotype, Genotype> GeneOps::crossover(const Genotype& a,
                                                 const Genotype& b,
                                                 CrossoverOp op,
                                                 double crossover_rate,
                                                 util::Rng& rng) const {
  Genotype child1 = a;
  Genotype child2 = b;
  if (a.size() != b.size() || a.size() < 2 ||
      !rng.next_bool(crossover_rate)) {
    return {std::move(child1), std::move(child2)};
  }
  if (op == CrossoverOp::kOnePoint) {
    const std::size_t cut = 1 + rng.next_below(a.size() - 1);
    for (std::size_t i = cut; i < a.size(); ++i) {
      child1[i] = b[i];
      child2[i] = a[i];
    }
  } else {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (rng.next_bool()) {
        child1[i] = b[i];
        child2[i] = a[i];
      }
    }
  }
  return {std::move(child1), std::move(child2)};
}

}  // namespace autolock::ga
