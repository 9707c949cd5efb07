// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// bit-parallel simulation, topological sorting, enclosing-subgraph
// extraction, GNN inference/training, structural attack, SAT solving, and
// locking transforms. These are the knobs that determine how large a GA run
// a given machine can afford.
#include <benchmark/benchmark.h>

#include "attacks/gnn.hpp"
#include "attacks/muxlink.hpp"
#include "attacks/structural.hpp"
#include "locking/compound.hpp"
#include "locking/mux_lock.hpp"
#include "locking/sites.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "sat/cnf.hpp"

namespace {

using namespace autolock;

void BM_SimulatorRunWord(benchmark::State& state) {
  const auto circuit = netlist::gen::make_profile(
      static_cast<netlist::gen::ProfileId>(state.range(0)), 1);
  const netlist::Simulator sim(circuit);
  util::Rng rng(1);
  std::vector<std::uint64_t> inputs(circuit.primary_inputs().size());
  for (auto& word : inputs) word = rng();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_word(inputs, {}));
  }
  state.SetItemsProcessed(state.iterations() * 64);  // 64 vectors per word
}
BENCHMARK(BM_SimulatorRunWord)
    ->Arg(static_cast<int>(netlist::gen::ProfileId::kC432))
    ->Arg(static_cast<int>(netlist::gen::ProfileId::kC1908))
    ->Arg(static_cast<int>(netlist::gen::ProfileId::kC7552));

void BM_TopologicalOrder(benchmark::State& state) {
  const auto circuit =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC7552, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.topological_order());
  }
}
BENCHMARK(BM_TopologicalOrder);

void BM_DmuxLock(benchmark::State& state) {
  const auto circuit =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC1908, 1);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lock::dmux_lock(circuit, static_cast<std::size_t>(state.range(0)),
                        ++seed));
  }
}
BENCHMARK(BM_DmuxLock)->Arg(32)->Arg(64);

void BM_SubgraphExtraction(benchmark::State& state) {
  const auto circuit =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC1908, 1);
  const auto design = lock::dmux_lock(circuit, 32, 1);
  const attack::AttackGraph graph(design.netlist);
  const auto& links = graph.known_links();
  attack::SubgraphScratch scratch;
  attack::Subgraph sub;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& link = links[i++ % links.size()];
    attack::extract_subgraph_into(graph, link.u, link.v, {}, scratch, sub);
    benchmark::DoNotOptimize(sub.features.values.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SubgraphExtraction);

void BM_GnnPredict(benchmark::State& state) {
  const auto circuit =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 1);
  const auto design = lock::dmux_lock(circuit, 16, 1);
  const attack::AttackGraph graph(design.netlist);
  const auto& link = graph.known_links().front();
  attack::SubgraphScratch extraction;
  attack::Subgraph sub;
  attack::extract_subgraph_into(graph, link.u, link.v, {}, extraction, sub);
  const attack::Gnn model(attack::GnnConfig{}, 7);
  attack::GnnScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(sub, scratch));
  }
}
BENCHMARK(BM_GnnPredict);

void BM_GnnTrainEpoch(benchmark::State& state) {
  // The in-loop MuxLink shape: 240 training samples of at most 32 nodes,
  // half of them labelled as links.
  const auto circuit =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 1);
  const auto design = lock::dmux_lock(circuit, 32, 1);
  const attack::AttackGraph graph(design.netlist);
  const auto& links = graph.known_links();
  attack::SubgraphConfig subgraph;
  subgraph.max_nodes = 32;
  attack::SubgraphScratch extraction;
  std::vector<attack::Subgraph> samples(240);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& link = links[(i * 7) % links.size()];
    attack::extract_subgraph_into(graph, link.u, link.v, subgraph, extraction,
                                  samples[i]);
    samples[i].label = static_cast<double>(i % 2);
  }
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  attack::Gnn model(attack::GnnConfig{}, 7);
  attack::GnnScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_epoch(samples, order, scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_GnnTrainEpoch)->Unit(benchmark::kMillisecond);

void BM_StructuralAttack(benchmark::State& state) {
  const auto circuit =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 1);
  const auto design = lock::dmux_lock(circuit, 32, 1);
  const attack::StructuralLinkPredictor attacker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacker.attack(design.netlist));
  }
}
BENCHMARK(BM_StructuralAttack);

void BM_MuxLinkAttackFast(benchmark::State& state) {
  const auto circuit =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  const auto design = lock::dmux_lock(circuit, 16, 1);
  attack::MuxLinkConfig config;
  config.epochs = 5;
  config.max_train_links = 200;
  const attack::MuxLinkAttack attacker(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacker.attack(design.netlist));
  }
}
BENCHMARK(BM_MuxLinkAttackFast)->Unit(benchmark::kMillisecond);

void BM_SatEquivalenceCheck(benchmark::State& state) {
  const auto circuit =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  const auto design = lock::dmux_lock(circuit, 16, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sat::check_equivalent(design.netlist, design.key, circuit, {}));
  }
  state.SetLabel("strashed correct-key proof");
}
BENCHMARK(BM_SatEquivalenceCheck)->Unit(benchmark::kMillisecond);

void BM_SatEquivalenceCheckC1355Compound(benchmark::State& state) {
  // The campaign's compound shape at K = 8: D-MUX, RLL and Anti-SAT genes.
  const auto circuit =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC1355, 1);
  const lock::SiteContext context(circuit);
  util::Rng rng(1);
  const auto genes = lock::random_genotype(
      context, {.mux_sites = 4, .rll_gates = 2, .antisat_width = 2}, rng);
  const auto design = lock::apply_genotype(circuit, context, genes, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sat::check_equivalent(design.netlist, design.key, circuit, {}));
  }
  state.SetLabel("strashed correct-key proof");
}
BENCHMARK(BM_SatEquivalenceCheckC1355Compound)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
