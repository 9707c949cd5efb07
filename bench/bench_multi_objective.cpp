// X3: multi-objective AutoLock (research plan item 3: "a multi-objective
// optimization that includes a set of distinct attacks").
//
// NSGA-II over two minimized objectives:
//   o1 = structural link-prediction attack accuracy
//   o2 = 1 - wrong-key output corruption   (resilience must not come from
//                                           functionally inert localities)
// The final Pareto front is printed with a post-hoc GNN MuxLink evaluation
// of each front member, showing the trade-off surface.
#include "bench/common.hpp"

#include "core/nsga2.hpp"
#include "eval/registry.hpp"
#include "eval/workspace.hpp"

int main(int argc, char** argv) {
  using namespace autolock;
  const auto args = benchx::parse_args(argc, argv);

  const auto original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  const std::size_t key_bits = args.quick ? 8 : 16;

  ga::Nsga2Config config;
  config.population = args.quick ? 8 : 16;
  config.generations = args.quick ? 3 : 8;
  config.seed = 99;
  ga::Nsga2 engine(original, config);

  // Objectives through the shared pipeline: one per attack (structural
  // accuracy) plus the corruption objective. The pipeline owns decode,
  // caching, and the shared oracle simulator.
  eval::EvalPipelineConfig pipeline_config;
  pipeline_config.attacks = {"structural"};
  pipeline_config.corruption_objective = true;
  pipeline_config.corruption_vectors = 256;
  pipeline_config.seed = config.seed;
  eval::EvalPipeline pipeline(original, std::move(pipeline_config));

  util::Timer timer;
  const ga::Nsga2Result result = engine.run({.mux_sites = key_bits}, pipeline);

  util::Table front({"front member", "structural acc (min)",
                     "1 - corruption (min)", "GNN MuxLink acc (post-hoc)"});
  eval::AttackOptions gnn_options;
  gnn_options.muxlink = benchx::muxlink_fast();
  const auto gnn = eval::make_attack("muxlink", gnn_options);
  eval::EvalWorkspace workspace;
  int member = 0;
  for (const auto& individual : result.front) {
    const auto design = pipeline.decode(individual.genes);
    const double gnn_acc = gnn->evaluate(design, workspace).accuracy;
    front.add_row({std::to_string(member++),
                   util::fmt_pct(individual.objectives[0]),
                   util::fmt(individual.objectives[1]),
                   util::fmt_pct(gnn_acc)});
  }
  benchx::emit(front, args,
               "X3 — NSGA-II Pareto front on c432 (K=" +
                   std::to_string(key_bits) + ", " +
                   std::to_string(result.evaluations) + " evaluations, " +
                   util::fmt(timer.elapsed_seconds(), 1) + "s)");

  util::Table history({"generation", "first-front size"});
  for (std::size_t g = 0; g < result.front_size_history.size(); ++g) {
    history.add_row({std::to_string(g),
                     std::to_string(result.front_size_history[g])});
  }
  benchx::emit(history, args, "X3 — front growth");
  return 0;
}
