#include "core/nsga2.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/gene_ops.hpp"
#include "eval/pipeline.hpp"

namespace autolock::ga {

namespace {

constexpr double kCrossoverRate = 0.9;   // one-point
constexpr double kMutationRate = 0.08;   // per gene

}  // namespace

Nsga2::Nsga2(const netlist::Netlist& original, Nsga2Config config)
    : original_(&original), config_(config) {
  if (config_.population < 4) {
    throw std::invalid_argument("Nsga2Config: population must be >= 4");
  }
}

bool Nsga2::dominates(const std::vector<double>& a,
                      const std::vector<double>& b) {
  bool strictly_better = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] > b[k]) return false;
    if (a[k] < b[k]) strictly_better = true;
  }
  return strictly_better;
}

std::vector<std::vector<std::size_t>> Nsga2::non_dominated_sort(
    std::vector<MoIndividual>& population) {
  const std::size_t n = population.size();
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<std::size_t> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> fronts(1);

  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (dominates(population[p].objectives, population[q].objectives)) {
        dominated_by[p].push_back(q);
      } else if (dominates(population[q].objectives,
                           population[p].objectives)) {
        ++domination_count[p];
      }
    }
    if (domination_count[p] == 0) {
      population[p].rank = 0;
      fronts[0].push_back(p);
    }
  }
  std::size_t current = 0;
  while (!fronts[current].empty()) {
    std::vector<std::size_t> next;
    for (std::size_t p : fronts[current]) {
      for (std::size_t q : dominated_by[p]) {
        if (--domination_count[q] == 0) {
          population[q].rank = current + 1;
          next.push_back(q);
        }
      }
    }
    fronts.push_back(std::move(next));
    ++current;
  }
  fronts.pop_back();  // last one is empty
  return fronts;
}

void Nsga2::assign_crowding(std::vector<MoIndividual>& population,
                            const std::vector<std::size_t>& front) {
  for (std::size_t i : front) population[i].crowding = 0.0;
  if (front.size() <= 2) {
    for (std::size_t i : front) {
      population[i].crowding = std::numeric_limits<double>::infinity();
    }
    return;
  }
  const std::size_t objectives = population[front[0]].objectives.size();
  std::vector<std::size_t> sorted = front;
  for (std::size_t k = 0; k < objectives; ++k) {
    std::sort(sorted.begin(), sorted.end(),
              [&](std::size_t a, std::size_t b) {
                return population[a].objectives[k] <
                       population[b].objectives[k];
              });
    const double lo = population[sorted.front()].objectives[k];
    const double hi = population[sorted.back()].objectives[k];
    population[sorted.front()].crowding =
        std::numeric_limits<double>::infinity();
    population[sorted.back()].crowding =
        std::numeric_limits<double>::infinity();
    if (hi - lo <= 0.0) continue;
    for (std::size_t pos = 1; pos + 1 < sorted.size(); ++pos) {
      population[sorted[pos]].crowding +=
          (population[sorted[pos + 1]].objectives[k] -
           population[sorted[pos - 1]].objectives[k]) /
          (hi - lo);
    }
  }
}

Nsga2Result Nsga2::run(const lock::GenotypeSpec& spec,
                       eval::EvalPipeline& pipeline) {
  if (&pipeline.original() != original_) {
    throw std::invalid_argument(
        "Nsga2::run: pipeline was built on a different netlist");
  }
  util::Rng rng(config_.seed);
  Nsga2Result result;

  auto evaluate = [&](std::vector<MoIndividual>& pop,
                      std::size_t generation) {
    result.evaluations += pipeline.evaluate_population(pop, generation).evaluated;
  };

  // Variation is shared with the single-objective GA through the GeneOps
  // dispatch (core/gene_ops.hpp); the two engines still evolve independent
  // RNG streams in benchmarks.
  const GeneOps ops(pipeline.context());
  auto crossover = [&](const Genotype& a, const Genotype& b) {
    return ops.crossover(a, b, CrossoverOp::kOnePoint, kCrossoverRate, rng);
  };
  auto mutate = [&](Genotype& genes) {
    ops.mutate(genes, kMutationRate, rng);
  };
  auto tournament = [&](const std::vector<MoIndividual>& pop) -> const MoIndividual& {
    const MoIndividual& a = pop[rng.next_below(pop.size())];
    const MoIndividual& b = pop[rng.next_below(pop.size())];
    if (a.rank != b.rank) return a.rank < b.rank ? a : b;
    return a.crowding > b.crowding ? a : b;
  };

  // ---- initialize -----------------------------------------------------------
  std::vector<MoIndividual> population(config_.population);
  for (auto& individual : population) {
    util::Rng init_rng = rng.fork();
    individual.genes =
        lock::random_genotype(pipeline.context(), spec, init_rng);
  }
  evaluate(population, 0);
  {
    auto fronts = non_dominated_sort(population);
    for (const auto& front : fronts) assign_crowding(population, front);
    result.front_size_history.push_back(fronts.front().size());
  }

  for (std::size_t generation = 1; generation <= config_.generations;
       ++generation) {
    // Offspring.
    std::vector<MoIndividual> offspring;
    offspring.reserve(config_.population);
    while (offspring.size() < config_.population) {
      auto [child1, child2] =
          crossover(tournament(population).genes, tournament(population).genes);
      mutate(child1);
      mutate(child2);
      offspring.push_back(MoIndividual{std::move(child1), {}, 0, 0.0});
      if (offspring.size() < config_.population) {
        offspring.push_back(MoIndividual{std::move(child2), {}, 0, 0.0});
      }
    }
    evaluate(offspring, generation);

    // (mu + lambda) environmental selection.
    std::vector<MoIndividual> merged = std::move(population);
    merged.insert(merged.end(), std::make_move_iterator(offspring.begin()),
                  std::make_move_iterator(offspring.end()));
    auto fronts = non_dominated_sort(merged);
    for (const auto& front : fronts) assign_crowding(merged, front);

    population.clear();
    for (const auto& front : fronts) {
      if (population.size() + front.size() <= config_.population) {
        for (std::size_t i : front) population.push_back(merged[i]);
      } else {
        std::vector<std::size_t> sorted = front;
        std::sort(sorted.begin(), sorted.end(),
                  [&](std::size_t a, std::size_t b) {
                    return merged[a].crowding > merged[b].crowding;
                  });
        for (std::size_t i : sorted) {
          if (population.size() >= config_.population) break;
          population.push_back(merged[i]);
        }
      }
      if (population.size() >= config_.population) break;
    }
    // Re-rank the surviving population for the next tournament round.
    auto new_fronts = non_dominated_sort(population);
    for (const auto& front : new_fronts) assign_crowding(population, front);
    result.front_size_history.push_back(new_fronts.front().size());
  }

  // Final first front.
  auto fronts = non_dominated_sort(population);
  for (std::size_t i : fronts.front()) result.front.push_back(population[i]);
  return result;
}

}  // namespace autolock::ga
