#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

namespace autolock::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng rng(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(rng());
  rng.reseed(77);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng(), first[i]);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(5);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const auto value = rng.next_in(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
  }
  EXPECT_EQ(rng.next_in(5, 5), 5);
  EXPECT_THROW(rng.next_in(3, 2), std::invalid_argument);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBoolRespectsProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.next_bool(0.25)) ++hits;
  }
  const double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> values(100);
  for (int i = 0; i < 100; ++i) values[i] = i;
  auto shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_FALSE(std::equal(values.begin(), values.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(29);
  const auto sample = rng.sample_indices(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (auto index : sample) EXPECT_LT(index, 50u);
}

TEST(Rng, SampleIndicesFullRange) {
  Rng rng(31);
  auto sample = rng.sample_indices(10, 10);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, SampleIndicesTooManyThrows) {
  Rng rng(31);
  EXPECT_THROW(rng.sample_indices(5, 6), std::invalid_argument);
}

TEST(Rng, PickThrowsOnEmpty) {
  Rng rng(37);
  const std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
}

TEST(Rng, PickReturnsMember) {
  Rng rng(37);
  const std::vector<int> items{4, 8, 15, 16, 23, 42};
  for (int i = 0; i < 100; ++i) {
    const int chosen = rng.pick(items);
    EXPECT_NE(std::find(items.begin(), items.end(), chosen), items.end());
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 3);
}

class RngBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundSweep, UniformityChiSquareLoose) {
  const std::uint64_t bound = GetParam();
  Rng rng(bound * 7 + 1);
  std::vector<int> counts(bound, 0);
  const int trials = static_cast<int>(bound) * 400;
  for (int i = 0; i < trials; ++i) ++counts[rng.next_below(bound)];
  const double expected = static_cast<double>(trials) / bound;
  double chi2 = 0.0;
  for (int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // Very loose bound: chi2 for (bound-1) dof should not explode.
  EXPECT_LT(chi2, 4.0 * static_cast<double>(bound) + 40.0);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep,
                         ::testing::Values(2, 3, 5, 8, 13, 31, 64));

}  // namespace
}  // namespace autolock::util
