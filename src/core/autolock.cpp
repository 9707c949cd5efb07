#include "core/autolock.hpp"

#include "util/log.hpp"
#include "util/timer.hpp"

namespace autolock {

AutoLock::AutoLock(AutoLockConfig config) : config_(std::move(config)) {}

eval::EvalPipelineConfig AutoLock::pipeline_config() const {
  eval::EvalPipelineConfig pipeline;
  switch (config_.fitness_attack) {
    case FitnessAttack::kMuxLinkGnn:
      pipeline.attacks = {"muxlink"};
      break;
    case FitnessAttack::kStructural:
      pipeline.attacks = {"structural"};
      break;
    case FitnessAttack::kBoth:
      // The pipeline averages accuracy/precision across the attack list.
      pipeline.attacks = {"muxlink", "structural"};
      break;
  }
  pipeline.attack_options.muxlink = config_.muxlink;
  pipeline.attack_options.structural = config_.structural;
  pipeline.corruption_weight = config_.corruption_weight;
  pipeline.corruption_vectors = config_.corruption_vectors;
  pipeline.threads = config_.threads;
  pipeline.seed = config_.ga.seed;
  return pipeline;
}

ga::Evaluation AutoLock::evaluate(const lock::LockedDesign& design,
                                  const netlist::Netlist& original) const {
  eval::EvalPipelineConfig config = pipeline_config();
  config.threads = 1;
  const eval::EvalPipeline pipeline(original, std::move(config));
  return pipeline.score(design);
}

AutoLockReport AutoLock::run(const netlist::Netlist& original,
                             const lock::GenotypeSpec& spec) {
  util::Timer timer;

  ga::GaConfig ga_config = config_.ga;
  if (config_.target_accuracy.has_value()) {
    // fitness = 1 - accuracy (+ nonneg corruption term), so accuracy <= T
    // is implied by fitness >= 1 - T.
    ga_config.fitness_target = 1.0 - *config_.target_accuracy;
  }

  ga::GeneticAlgorithm engine(original, ga_config);
  eval::EvalPipeline pipeline(original, pipeline_config());

  ga::GaResult ga_result = engine.run(spec, pipeline);

  AutoLockReport report;
  report.history = std::move(ga_result.history);
  report.evaluations = ga_result.evaluations;
  report.reached_target = ga_result.reached_target;
  if (!report.history.empty()) {
    report.initial_best_accuracy = report.history.front().best_accuracy;
    // Mean accuracy of generation 0 == 1 - mean fitness when the corruption
    // term is disabled; recompute defensively from fitness only in that
    // case, otherwise fall back to best accuracy.
    report.initial_mean_accuracy =
        config_.corruption_weight == 0.0
            ? 1.0 - report.history.front().mean_fitness
            : report.history.front().best_accuracy;
  }
  report.final_accuracy = ga_result.best.eval.attack_accuracy;
  report.accuracy_drop = report.initial_mean_accuracy - report.final_accuracy;
  report.locked = pipeline.decode(ga_result.best.genes);
  report.locked.netlist.set_name(original.name() + "_autolock");
  report.seconds = timer.elapsed_seconds();
  util::log_info("AutoLock(", original.name(), ", K=", spec.key_bits(),
                 "): accuracy ", report.initial_mean_accuracy, " -> ",
                 report.final_accuracy, " in ", report.evaluations,
                 " evaluations, ", report.seconds, "s");
  return report;
}

}  // namespace autolock
