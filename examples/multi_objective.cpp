// Example: multi-objective AutoLock with NSGA-II (research-plan item 3).
//
// Evolves lockings that simultaneously minimize (a) structural-attack
// accuracy and (b) functional inertness (1 - wrong-key corruption), then
// prints the Pareto front. Shows that single-objective attack-resilience can
// be gamed by picking swappable-but-equivalent paths, and how the second
// objective prevents that.
#include <cstdio>

#include "core/nsga2.hpp"
#include "eval/pipeline.hpp"
#include "netlist/generator.hpp"

int main() {
  using namespace autolock;

  const netlist::Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  constexpr std::size_t kKeyBits = 16;

  ga::Nsga2Config config;
  config.population = 16;
  config.generations = 6;
  config.seed = 3;
  ga::Nsga2 engine(original, config);

  // One pipeline provides both objectives: the structural attack (by
  // registry name) and the wrong-key corruption term. Swapping the attack
  // mix is a one-line change to the `attacks` list.
  eval::EvalPipelineConfig pipeline_config;
  pipeline_config.attacks = {"structural"};
  pipeline_config.corruption_objective = true;
  pipeline_config.corruption_vectors = 256;
  pipeline_config.seed = config.seed;
  eval::EvalPipeline pipeline(original, std::move(pipeline_config));

  std::printf("evolving %zu-bit lockings of %s with NSGA-II...\n", kKeyBits,
              original.name().c_str());
  const ga::Nsga2Result result = engine.run({.mux_sites = kKeyBits}, pipeline);

  std::printf("\nPareto front (%zu members, %zu evaluations):\n",
              result.front.size(), result.evaluations);
  std::printf("  %-8s %-22s %-22s\n", "member", "structural attack acc",
              "corruption (wrong key)");
  int member = 0;
  for (const auto& individual : result.front) {
    const double corruption = (1.0 - individual.objectives[1]) * 0.5;
    std::printf("  %-8d %-22.1f %-22.3f\n", member++,
                100.0 * individual.objectives[0], corruption);
  }
  std::printf(
      "\nReading the front: members to the upper-left resist the attack but\n"
      "corrupt little (weak locking); lower-right corrupt strongly but leak\n"
      "more structure. A deployment picks the knee point.\n");
  return 0;
}
