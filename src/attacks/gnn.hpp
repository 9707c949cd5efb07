// A small graph neural network for subgraph (link) classification, written
// from scratch: two mean-aggregation message-passing layers (GraphSAGE
// flavour), mean pooling, a one-hidden-layer MLP head, sigmoid output,
// binary cross-entropy loss, and Adam — all with manual backpropagation.
//
// This is the stand-in for MuxLink's DGCNN: same attack surface (learned
// link prediction over enclosing subgraphs), CPU-sized.
//
// Most of what the network multiplies is zero: the layer-1 input is one-hot
// heavy (about 12% nonzero, its neighbour mean about 19%) and ReLU zeroes
// about half of every hidden row. Each left operand therefore carries one
// 64-bit mask per row, built in the pass that produces the row, and the
// products run through masked micro-kernels (detail::gemm_masked*) that
// visit only the marked columns, ascending. A skipped term is a ±0.0
// product, and every sum it would join starts at +0.0 (a fresh accumulator,
// or a gradient Adam has reset), which addition never turns into −0.0; so
// skipping it leaves the sum unchanged and the kernels are bit-identical to
// the dense naive triple loop. All buffers live in GnnScratch, so a
// training epoch allocates nothing once the scratch is warm.
#pragma once

#include <cstdint>
#include <vector>

#include "attacks/features.hpp"
#include "util/rng.hpp"

namespace autolock::attack {

struct GnnConfig {
  // The architecture is fixed: the kernels below are built for it.
  static constexpr std::size_t kInputDim = kFeatureDim;
  static constexpr std::size_t kHiddenDim = 32;
  static constexpr std::size_t kMlpDim = 16;
  static constexpr std::size_t kBatchSize = 32;
  static constexpr double kWeightDecay = 1e-5;

  double learning_rate = 5e-3;
};

/// Dense row-major matrix, minimal on purpose.
struct Mat {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> data;

  Mat() = default;
  Mat(std::size_t r, std::size_t c) : rows(r), cols(c), data(r * c, 0.0) {}
  double& at(std::size_t r, std::size_t c) { return data[r * cols + c]; }
  double at(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
  void zero() { std::fill(data.begin(), data.end(), 0.0); }
  /// Reshapes without zeroing; existing capacity is reused. Callers must
  /// overwrite every element (the kernels below always do).
  void reshape(std::size_t r, std::size_t c) {
    rows = r;
    cols = c;
    data.resize(r * c);
  }
};

namespace detail {

// Masked micro-kernels (row-major, restrict-qualified inside). The right
// operand and the output are kKernelWidth (= hidden size) columns wide; the
// left operand has k <= 64 columns. Bit p of mask[i] marks a[i][p]: a mask
// must mark every nonzero entry of its row and may mark zeros too. Each
// output element sums its marked terms in ascending reduction order, so a
// kernel matches the dense naive triple loop bit-for-bit as long as nothing
// it accumulates onto holds −0.0. Exposed for tests and benchmarks.

inline constexpr std::size_t kKernelWidth = GnnConfig::kHiddenDim;

/// mask[i] marks the nonzero entries of row i of a(m x k).
void row_masks(const double* a, std::size_t m, std::size_t k,
               std::uint64_t* mask);

/// c(m x 32) = (or +=) a(m x k) * b(k x 32).
void gemm_masked(const double* a, const std::uint64_t* mask, const double* b,
                 double* c, std::size_t m, std::size_t k, bool accumulate);

/// c(k x 32) += a(m x k)^T * d(m x 32) (weight-gradient shape; each element
/// sums over the rows of a, ascending).
void gemm_at_masked(const double* a, const std::uint64_t* mask,
                    const double* d, double* c, std::size_t m, std::size_t k);

/// c(m x 32) = sum of the rows t[p] that mask[i] marks, ascending p. With
/// t[p][q] = g[p] * w[q][p] this is the product d * w^T for a d whose row i
/// is g where mask[i] is set and 0 elsewhere, without its multiplies.
void masked_row_sum(const std::uint64_t* mask, const double* t, double* c,
                    std::size_t m);

}  // namespace detail

/// Reusable per-worker GNN buffers: forward activations, backward
/// temporaries, and a flattened CSR copy of the current sample's adjacency.
/// Lives in AttackScratch so MuxLink's training epochs and inference sweeps
/// allocate nothing once warm. Holds no model or result state — predictions
/// through a fresh scratch and a reused one are bit-identical.
struct GnnScratch {
  // CSR adjacency of the current sample (neighbor list order preserved).
  std::vector<std::uint32_t> adj_offsets;
  std::vector<std::uint32_t> adj_edges;
  // Forward activations, one per message-passing stage, with the row
  // masks of the ones that feed a product.
  Mat x;             // input features
  Mat agg0, z1, h1;  // layer 1: neighbor mean, pre-activation, activation
  Mat agg1, z2, h2;  // layer 2
  std::vector<std::uint64_t> x_mask, agg0_mask, h1_mask, agg1_mask;
  std::vector<std::uint64_t> z2_mask;  // z2 > 0: the nonzeros of d_z2
  std::vector<double> pooled;        // mean-pooled h2
  std::vector<double> mlp_z, mlp_h;  // MLP hidden pre/post activation
  double logit = 0.0;
  double prob = 0.0;
  // Backward temporaries.
  Mat d_z2, d_h1, d_agg1, d_z1;
  Mat g_wt;  // d_h2's shared row times a transposed layer-2 weight
  std::vector<double> d_mlp_h, d_mlp_z, d_pooled;
  std::vector<double> d_h2_row;  // every row of d_h2: d_pooled / n
};

class Gnn {
 public:
  Gnn(const GnnConfig& config, std::uint64_t seed);

  /// Predicted probability that the subgraph's (0,1) link exists; all
  /// working buffers come from `scratch`.
  double predict(const Subgraph& sample, GnnScratch& scratch) const;

  /// Allocating convenience (one-shot callers and tests); identical result.
  double predict(const Subgraph& sample) const;

  /// One epoch of minibatch Adam over `samples` in the given order
  /// (shuffle outside). Returns mean BCE loss; all per-sample buffers come
  /// from `scratch`.
  double train_epoch(const std::vector<Subgraph>& samples,
                     const std::vector<std::size_t>& order,
                     GnnScratch& scratch);

  /// Allocating convenience; identical result.
  double train_epoch(const std::vector<Subgraph>& samples,
                     const std::vector<std::size_t>& order);

 private:
  struct Layer {
    Mat w_self, w_neigh;
    std::vector<double> bias;
  };
  struct AdamState {
    std::vector<double> m, v;
  };

  /// Fills scratch with the forward pass (logit/prob included).
  void forward(const Subgraph& sample, GnnScratch& scratch) const;
  void backward(const Subgraph& sample, GnnScratch& scratch, double dlogit);
  void adam_step();

  // Parameter/gradient flattening helpers.
  std::vector<std::vector<double>*> param_views();
  std::vector<std::vector<double>*> grad_views();

  GnnConfig config_;
  Layer layer1_, layer2_;
  Mat mlp_w1_;
  std::vector<double> mlp_b1_;
  std::vector<double> mlp_w2_;
  double mlp_b2_ = 0.0;

  // Gradients (same shapes as parameters).
  Layer g_layer1_, g_layer2_;
  Mat g_mlp_w1_;
  std::vector<double> g_mlp_b1_;
  std::vector<double> g_mlp_w2_;
  double g_mlp_b2_ = 0.0;

  std::vector<AdamState> adam_;
  std::uint64_t adam_t_ = 0;
};

}  // namespace autolock::attack
