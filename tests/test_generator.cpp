#include "netlist/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "netlist/bench_io.hpp"

namespace autolock::netlist::gen {
namespace {

TEST(Generator, C17IsTheRealCircuit) {
  const Netlist c17_a = c17();
  const Netlist c17_b = make_profile(ProfileId::kC17, 999);
  EXPECT_EQ(bench::write(c17_a), bench::write(c17_b));  // seed ignored
  EXPECT_EQ(c17_a.stats().gates, 6u);
}

TEST(Generator, DeterministicInSeed) {
  const Netlist a = make_profile(ProfileId::kC432, 42);
  const Netlist b = make_profile(ProfileId::kC432, 42);
  const Netlist c = make_profile(ProfileId::kC432, 43);
  EXPECT_EQ(bench::write(a), bench::write(b));
  EXPECT_NE(bench::write(a), bench::write(c));
}

TEST(Generator, RejectsEmptyInterface) {
  RandomCircuitConfig config;
  config.primary_inputs = 0;
  EXPECT_THROW(make_random(config, 1), std::invalid_argument);
}

TEST(Generator, GateCountExact) {
  RandomCircuitConfig config;
  config.primary_inputs = 10;
  config.outputs = 4;
  config.gates = 77;
  const Netlist n = make_random(config, 5);
  EXPECT_EQ(n.stats().gates, 77u);
  EXPECT_EQ(n.primary_inputs().size(), 10u);
}

TEST(Generator, AllGatesLive) {
  RandomCircuitConfig config;
  config.primary_inputs = 8;
  config.outputs = 4;
  config.gates = 50;
  const Netlist n = make_random(config, 9);
  const auto live = n.live_mask();
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node(v).type == GateType::kInput) continue;
    EXPECT_TRUE(live[v]) << "dead gate " << n.name(v);
  }
}

TEST(Generator, ProfileLookupByName) {
  EXPECT_EQ(profile_by_name("c432"), ProfileId::kC432);
  EXPECT_EQ(profile_by_name("c6288"), ProfileId::kC6288);
  EXPECT_THROW(profile_by_name("c999"), std::invalid_argument);
}

TEST(Generator, AllProfilesListedAscending) {
  const auto profiles = all_profiles();
  EXPECT_EQ(profiles.size(), 10u);
  std::size_t previous = 0;
  for (const auto id : profiles) {
    const auto& info = profile_info(id);
    EXPECT_GE(info.gates, previous);
    previous = info.gates;
  }
}

class ProfileSweep : public ::testing::TestWithParam<ProfileId> {};

TEST_P(ProfileSweep, MatchesPublishedInterface) {
  const auto& info = profile_info(GetParam());
  const Netlist n = make_profile(GetParam(), 7);
  EXPECT_EQ(n.primary_inputs().size(), info.primary_inputs);
  EXPECT_EQ(n.stats().gates, info.gates);
  // Synthetic profiles may overshoot the output count slightly when the
  // random DAG has surplus sinks; never undershoot.
  EXPECT_GE(n.outputs().size(), info.outputs);
  EXPECT_LE(n.outputs().size(), info.outputs + info.outputs / 4 + 2);
  EXPECT_NO_THROW(n.validate());
}

TEST_P(ProfileSweep, DepthInRealisticBallpark) {
  const auto& info = profile_info(GetParam());
  const Netlist n = make_profile(GetParam(), 7);
  // Depth is a soft target for the synthetic generator; it should land
  // within a factor ~4 of the namesake's depth.
  EXPECT_GE(n.depth(), info.depth / 4);
  EXPECT_LE(n.depth(), info.depth * 4 + 8);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileSweep,
                         ::testing::Values(ProfileId::kC17, ProfileId::kC432,
                                           ProfileId::kC880, ProfileId::kC1355,
                                           ProfileId::kC1908,
                                           ProfileId::kC2670,
                                           ProfileId::kC3540,
                                           ProfileId::kC5315,
                                           ProfileId::kC6288,
                                           ProfileId::kC7552));

TEST(Generator, LayeredDeterministicWithExactInterface) {
  LayeredCircuitConfig config;
  config.primary_inputs = 32;
  config.outputs = 12;
  config.gates = 800;
  config.layers = 16;
  const Netlist a = make_layered(config, 7);
  const Netlist b = make_layered(config, 7);
  const Netlist c = make_layered(config, 8);
  EXPECT_EQ(bench::write(a), bench::write(b));
  EXPECT_NE(bench::write(a), bench::write(c));
  EXPECT_EQ(a.primary_inputs().size(), 32u);
  EXPECT_EQ(a.outputs().size(), 12u);
  EXPECT_EQ(a.stats().gates, 800u);
  a.validate();
}

TEST(Generator, LayeredAllGatesLive) {
  LayeredCircuitConfig config;
  config.primary_inputs = 16;
  config.outputs = 8;
  config.gates = 300;
  config.layers = 10;
  const Netlist n = make_layered(config, 3);
  const auto live = n.live_mask();
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node(v).type == GateType::kInput) continue;
    EXPECT_TRUE(live[v]) << "dead gate " << n.name(v);
  }
}

TEST(Generator, ScaleProfilesAscendingAndLookupByName) {
  const auto& profiles = scale_profiles();
  ASSERT_GE(profiles.size(), 2u);
  std::size_t previous = 0;
  for (const auto& info : profiles) {
    EXPECT_GT(info.gates, previous);
    previous = info.gates;
  }
  EXPECT_THROW(make_scale_profile("synthbogus", 1), std::invalid_argument);
}

TEST(Analysis, NodeLevelsMonotone) {
  std::vector<std::uint32_t> levels;
  for (const ProfileId id : {ProfileId::kC432, ProfileId::kC880}) {
    const Netlist n = make_profile(id, 3);
    node_levels_into(n, levels);
    ASSERT_EQ(levels.size(), n.size());
    for (NodeId v = 0; v < n.size(); ++v) {
      for (NodeId fanin : n.node(v).fanins) {
        EXPECT_LT(levels[fanin], levels[v]);
      }
    }
    EXPECT_EQ(n.depth(), *std::max_element(levels.begin(), levels.end()));
  }
}

}  // namespace
}  // namespace autolock::netlist::gen
