#include "core/heuristics.hpp"

#include <cmath>

#include "core/gene_ops.hpp"
#include "eval/pipeline.hpp"

namespace autolock::ga {

namespace {

/// Hill climbing restarts after this many consecutive non-improving moves.
constexpr std::size_t kRestartAfter = 30;
/// Annealing's starting temperature and per-evaluation cooling factor.
constexpr double kInitialTemperature = 0.08;
constexpr double kCooling = 0.97;

/// All three heuristics share the pipeline's decode/repair/score path; this
/// counter threads the per-proposal repair seed exactly as the heuristics
/// always have (one deterministic repair RNG per evaluation index).
struct PipelineEvaluator {
  eval::EvalPipeline* pipeline;
  std::size_t evaluations = 0;

  explicit PipelineEvaluator(eval::EvalPipeline& p) : pipeline(&p) {}

  Evaluation evaluate(Genotype& genes) {
    const Evaluation eval =
        pipeline->evaluate(genes, evaluations * 0x9E3779B9ULL);
    ++evaluations;
    return eval;
  }
};

}  // namespace

HeuristicResult random_search(eval::EvalPipeline& pipeline,
                              const lock::GenotypeSpec& spec,
                              const HeuristicConfig& config) {
  util::Rng rng(config.seed);
  PipelineEvaluator evaluator(pipeline);
  HeuristicResult result;
  result.best.eval.fitness = -1e300;
  for (std::size_t e = 0; e < config.evaluations; ++e) {
    util::Rng draw = rng.fork();
    Genotype genes = lock::random_genotype(pipeline.context(), spec, draw);
    const Evaluation eval = evaluator.evaluate(genes);
    if (eval.fitness > result.best.eval.fitness) {
      result.best = Individual{std::move(genes), eval};
    }
  }
  result.evaluations = evaluator.evaluations;
  return result;
}

HeuristicResult hill_climb(eval::EvalPipeline& pipeline,
                           const lock::GenotypeSpec& spec,
                           const HeuristicConfig& config) {
  util::Rng rng(config.seed ^ 0x41C9ULL);
  PipelineEvaluator evaluator(pipeline);
  const GeneOps ops(pipeline.context());
  HeuristicResult result;
  result.best.eval.fitness = -1e300;

  Genotype current;
  Evaluation current_eval;
  std::size_t stale = 0;
  bool need_restart = true;

  while (evaluator.evaluations < config.evaluations) {
    if (need_restart) {
      util::Rng draw = rng.fork();
      current = lock::random_genotype(pipeline.context(), spec, draw);
      current_eval = evaluator.evaluate(current);
      need_restart = false;
      stale = 0;
    } else {
      Genotype candidate = current;
      ops.mutate_one(candidate, rng);
      const Evaluation eval = evaluator.evaluate(candidate);
      if (eval.fitness > current_eval.fitness) {
        current = std::move(candidate);
        current_eval = eval;
        stale = 0;
      } else if (++stale >= kRestartAfter) {
        need_restart = true;
      }
    }
    if (current_eval.fitness > result.best.eval.fitness) {
      result.best = Individual{current, current_eval};
    }
  }
  result.evaluations = evaluator.evaluations;
  return result;
}

HeuristicResult simulated_annealing(eval::EvalPipeline& pipeline,
                                    const lock::GenotypeSpec& spec,
                                    const HeuristicConfig& config) {
  util::Rng rng(config.seed ^ 0x5AULL);
  PipelineEvaluator evaluator(pipeline);
  const GeneOps ops(pipeline.context());
  HeuristicResult result;
  result.best.eval.fitness = -1e300;

  util::Rng draw = rng.fork();
  Genotype current = lock::random_genotype(pipeline.context(), spec, draw);
  Evaluation current_eval = evaluator.evaluate(current);
  result.best = Individual{current, current_eval};

  double temperature = kInitialTemperature;
  while (evaluator.evaluations < config.evaluations) {
    Genotype candidate = current;
    ops.mutate_one(candidate, rng);
    const Evaluation eval = evaluator.evaluate(candidate);
    const double delta = eval.fitness - current_eval.fitness;
    const bool accept =
        delta >= 0.0 ||
        (temperature > 1e-12 &&
         rng.next_double() < std::exp(delta / temperature));
    if (accept) {
      current = std::move(candidate);
      current_eval = eval;
    }
    if (current_eval.fitness > result.best.eval.fitness) {
      result.best = Individual{current, current_eval};
    }
    temperature *= kCooling;
  }
  result.evaluations = evaluator.evaluations;
  return result;
}

}  // namespace autolock::ga
