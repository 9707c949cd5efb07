#include "core/ga.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/gene_ops.hpp"
#include "eval/pipeline.hpp"

namespace autolock::ga {

namespace {

/// Contenders drawn per tournament selection.
constexpr std::size_t kTournamentSize = 3;

}  // namespace

GeneticAlgorithm::GeneticAlgorithm(const netlist::Netlist& original,
                                   GaConfig config)
    : original_(&original), config_(config) {
  if (config_.population < 2) {
    throw std::invalid_argument("GaConfig: population must be >= 2");
  }
  if (config_.elites >= config_.population) {
    throw std::invalid_argument("GaConfig: elites must be < population");
  }
}

Genotype GeneticAlgorithm::select_parent(
    const std::vector<Individual>& population, util::Rng& rng) const {
  if (config_.selection == SelectionOp::kTournament) {
    const Individual* best = nullptr;
    for (std::size_t t = 0; t < kTournamentSize; ++t) {
      const Individual& contender =
          population[rng.next_below(population.size())];
      if (best == nullptr || contender.eval.fitness > best->eval.fitness) {
        best = &contender;
      }
    }
    return best->genes;
  }
  // Roulette wheel over shifted fitness (handles non-positive fitness).
  double min_fitness = population.front().eval.fitness;
  for (const Individual& ind : population) {
    min_fitness = std::min(min_fitness, ind.eval.fitness);
  }
  double total = 0.0;
  for (const Individual& ind : population) {
    total += (ind.eval.fitness - min_fitness) + 1e-9;
  }
  double draw = rng.next_double() * total;
  for (const Individual& ind : population) {
    draw -= (ind.eval.fitness - min_fitness) + 1e-9;
    if (draw <= 0.0) return ind.genes;
  }
  return population.back().genes;
}

GaResult GeneticAlgorithm::run(const lock::GenotypeSpec& spec,
                               eval::EvalPipeline& pipeline) {
  if (&pipeline.original() != original_) {
    throw std::invalid_argument(
        "GeneticAlgorithm::run: pipeline was built on a different netlist");
  }
  util::Rng rng(config_.seed);
  const GeneOps ops(pipeline.context());

  // ---- initialization: N independent random lockings of spec's shape -----
  std::vector<Individual> population(config_.population);
  for (std::size_t i = 0; i < population.size(); ++i) {
    util::Rng init_rng = rng.fork();
    population[i].genes =
        lock::random_genotype(pipeline.context(), spec, init_rng);
  }

  GaResult result;

  auto evaluate_population = [&](std::vector<Individual>& pop,
                                 std::size_t generation,
                                 std::size_t& cache_hits) {
    const auto stats = pipeline.evaluate_population(pop, generation);
    cache_hits += stats.cache_hits;
    result.evaluations += stats.evaluated;
  };

  auto sort_by_fitness = [](std::vector<Individual>& pop) {
    std::stable_sort(pop.begin(), pop.end(),
                     [](const Individual& a, const Individual& b) {
                       return a.eval.fitness > b.eval.fitness;
                     });
  };

  std::size_t cache_hits = 0;
  evaluate_population(population, 0, cache_hits);
  sort_by_fitness(population);

  auto record_generation = [&](std::size_t generation, std::size_t hits) {
    GenerationStats stats;
    stats.generation = generation;
    stats.best_fitness = population.front().eval.fitness;
    stats.worst_fitness = population.back().eval.fitness;
    double sum = 0.0;
    double accuracy_sum = 0.0;
    for (const Individual& ind : population) {
      sum += ind.eval.fitness;
      accuracy_sum += ind.eval.attack_accuracy;
    }
    const auto size = static_cast<double>(population.size());
    stats.mean_fitness = sum / size;
    stats.mean_accuracy = accuracy_sum / size;
    stats.best_accuracy = population.front().eval.attack_accuracy;
    stats.cache_hits = hits;
    result.history.push_back(stats);
  };
  record_generation(0, cache_hits);

  for (std::size_t generation = 1; generation <= config_.generations;
       ++generation) {
    std::vector<Individual> next;
    next.reserve(config_.population);
    for (std::size_t e = 0; e < config_.elites; ++e) {
      next.push_back(population[e]);  // elites carry their evaluation
    }
    while (next.size() < config_.population) {
      const Genotype parent_a = select_parent(population, rng);
      const Genotype parent_b = select_parent(population, rng);
      auto [child1, child2] = ops.crossover(
          parent_a, parent_b, config_.crossover, config_.crossover_rate, rng);
      ops.mutate(child1, config_.mutation_rate, rng);
      ops.mutate(child2, config_.mutation_rate, rng);
      next.push_back(Individual{std::move(child1), {}});
      if (next.size() < config_.population) {
        next.push_back(Individual{std::move(child2), {}});
      }
    }
    population = std::move(next);
    cache_hits = 0;
    evaluate_population(population, generation, cache_hits);
    sort_by_fitness(population);
    record_generation(generation, cache_hits);
  }

  result.best = population.front();
  return result;
}

}  // namespace autolock::ga
