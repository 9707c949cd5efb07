#include "attacks/gnn.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace autolock::attack {

namespace detail {

// Each kernel holds one 32-wide output row in eight 4-lane vector
// accumulators and adds one 32-wide row of the right operand per marked
// term, so every output element still sums its terms in ascending order:
// packed vmulpd/vaddpd perform the same IEEE operation per lane as their
// scalar forms, and gnn.cpp is compiled with -ffp-contract=off so no FMA
// rounds differently. The accumulators are GNU vector-extension variables
// (GCC and Clang): without AVX2 the compiler splits each into SSE2 halves.

namespace {

typedef double V4 __attribute__((vector_size(32)));

static_assert(kKernelWidth == 32, "a Row holds 8 x 4 lanes");
static_assert(GnnConfig::kInputDim <= 64 && GnnConfig::kHiddenDim <= 64,
              "row masks are 64 bits wide");

inline V4 v4_load(const double* p) {
  V4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void v4_store(double* p, V4 v) { std::memcpy(p, &v, sizeof(v)); }

inline V4 v4_splat(double x) { return V4{x, x, x, x}; }

/// One 32-wide output row in registers. Named members, not an array: GCC
/// keeps the members in ymm registers but spills an array to the stack.
struct Row {
  V4 v0, v1, v2, v3, v4, v5, v6, v7;
};

inline Row row_splat(double x) {
  const V4 v = v4_splat(x);
  return {v, v, v, v, v, v, v, v};
}

inline Row row_load(const double* p) {
  return {v4_load(p),      v4_load(p + 4),  v4_load(p + 8),  v4_load(p + 12),
          v4_load(p + 16), v4_load(p + 20), v4_load(p + 24), v4_load(p + 28)};
}

inline void row_store(double* p, const Row& r) {
  v4_store(p, r.v0), v4_store(p + 4, r.v1);
  v4_store(p + 8, r.v2), v4_store(p + 12, r.v3);
  v4_store(p + 16, r.v4), v4_store(p + 20, r.v5);
  v4_store(p + 24, r.v6), v4_store(p + 28, r.v7);
}

/// acc += s * b (one 32-wide row).
inline void row_axpy(Row& acc, double s, const double* b) {
  const V4 sv = v4_splat(s);
  acc.v0 += sv * v4_load(b), acc.v1 += sv * v4_load(b + 4);
  acc.v2 += sv * v4_load(b + 8), acc.v3 += sv * v4_load(b + 12);
  acc.v4 += sv * v4_load(b + 16), acc.v5 += sv * v4_load(b + 20);
  acc.v6 += sv * v4_load(b + 24), acc.v7 += sv * v4_load(b + 28);
}

/// acc += b (one 32-wide row).
inline void row_add(Row& acc, const double* b) {
  acc.v0 += v4_load(b), acc.v1 += v4_load(b + 4);
  acc.v2 += v4_load(b + 8), acc.v3 += v4_load(b + 12);
  acc.v4 += v4_load(b + 16), acc.v5 += v4_load(b + 20);
  acc.v6 += v4_load(b + 24), acc.v7 += v4_load(b + 28);
}

}  // namespace

void row_masks(const double* a, std::size_t m, std::size_t k,
               std::uint64_t* mask) {
  for (std::size_t i = 0; i < m; ++i) {
    std::uint64_t bits = 0;
    for (std::size_t p = 0; p < k; ++p) {
      bits |= static_cast<std::uint64_t>(a[i * k + p] != 0.0) << p;
    }
    mask[i] = bits;
  }
}

void gemm_masked(const double* a_, const std::uint64_t* mask, const double* b_,
                 double* c_, std::size_t m, std::size_t k, bool accumulate) {
  const double* __restrict a = a_;
  const double* __restrict b = b_;
  double* __restrict c = c_;
  for (std::size_t i = 0; i < m; ++i) {
    const double* __restrict arow = a + i * k;
    double* __restrict crow = c + i * kKernelWidth;
    Row acc = accumulate ? row_load(crow) : row_splat(0.0);
    for (std::uint64_t bits = mask[i]; bits != 0; bits &= bits - 1) {
      const auto p = static_cast<std::size_t>(std::countr_zero(bits));
      row_axpy(acc, arow[p], b + p * kKernelWidth);
    }
    row_store(crow, acc);
  }
}

void gemm_at_masked(const double* a_, const std::uint64_t* mask,
                    const double* d_, double* c_, std::size_t m,
                    std::size_t k) {
  const double* __restrict a = a_;
  const double* __restrict d = d_;
  double* __restrict c = c_;
  // Transpose the row masks, 64 rows at a time, into per-column row sets,
  // so each output row c[p] stays in registers while it gathers its terms
  // from the rows of a that mark column p (ascending row order).
  std::uint64_t col_rows[64];
  for (std::size_t r0 = 0; r0 < m; r0 += 64) {
    const std::size_t rows = std::min<std::size_t>(64, m - r0);
    std::fill(col_rows, col_rows + k, 0);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::uint64_t bits = mask[r0 + i]; bits != 0; bits &= bits - 1) {
        col_rows[std::countr_zero(bits)] |= std::uint64_t{1} << i;
      }
    }
    for (std::size_t p = 0; p < k; ++p) {
      if (col_rows[p] == 0) continue;
      double* __restrict crow = c + p * kKernelWidth;
      Row acc = row_load(crow);
      for (std::uint64_t bits = col_rows[p]; bits != 0; bits &= bits - 1) {
        const std::size_t i =
            r0 + static_cast<std::size_t>(std::countr_zero(bits));
        row_axpy(acc, a[i * k + p], d + i * kKernelWidth);
      }
      row_store(crow, acc);
    }
  }
}

void masked_row_sum(const std::uint64_t* mask, const double* t_, double* c_,
                    std::size_t m) {
  const double* __restrict t = t_;
  double* __restrict c = c_;
  for (std::size_t i = 0; i < m; ++i) {
    Row acc = row_splat(0.0);
    for (std::uint64_t bits = mask[i]; bits != 0; bits &= bits - 1) {
      row_add(acc, t + static_cast<std::size_t>(std::countr_zero(bits)) *
                           kKernelWidth);
    }
    row_store(c + i * kKernelWidth, acc);
  }
}

}  // namespace detail

namespace {

void xavier_init(Mat& mat, util::Rng& rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(mat.rows + mat.cols));
  for (double& w : mat.data) w = (2.0 * rng.next_double() - 1.0) * limit;
}

void xavier_init(std::vector<double>& vec, std::size_t fan_in,
                 util::Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + 1));
  for (double& w : vec) w = (2.0 * rng.next_double() - 1.0) * limit;
}

/// Copies the sample's vector-of-vectors adjacency into the scratch's flat
/// CSR arrays (neighbor list order — including duplicates — preserved).
void flatten_adjacency(const Subgraph& sample, GnnScratch& scratch) {
  const std::size_t n = sample.node_count;
  scratch.adj_offsets.resize(n + 1);
  scratch.adj_edges.clear();
  for (std::size_t i = 0; i < n; ++i) {
    scratch.adj_offsets[i] = static_cast<std::uint32_t>(scratch.adj_edges.size());
    const auto& nbrs = sample.adjacency[i];
    scratch.adj_edges.insert(scratch.adj_edges.end(), nbrs.begin(), nbrs.end());
  }
  scratch.adj_offsets[n] = static_cast<std::uint32_t>(scratch.adj_edges.size());
}

/// out(n x c) = mean of rows of in(n x c) over the CSR adjacency. A row's
/// mask is the OR of its neighbours' masks: a mean of rows that are zero in
/// a column is +0.0 there.
void mean_aggregate_csr(const std::vector<std::uint32_t>& offsets,
                        const std::vector<std::uint32_t>& edges, const Mat& in,
                        const std::vector<std::uint64_t>& in_mask, Mat& out,
                        std::vector<std::uint64_t>& out_mask) {
  out.reshape(in.rows, in.cols);
  out_mask.resize(in.rows);
  const std::size_t cols = in.cols;
  const double* __restrict src_base = in.data.data();
  for (std::size_t i = 0; i < in.rows; ++i) {
    double* __restrict dst = &out.data[i * cols];
    const std::uint32_t begin = offsets[i];
    const std::uint32_t end = offsets[i + 1];
    std::uint64_t bits = 0;
    for (std::size_t c = 0; c < cols; ++c) dst[c] = 0.0;
    for (std::uint32_t e = begin; e < end; ++e) {
      const double* __restrict src = src_base + edges[e] * cols;
      for (std::size_t c = 0; c < cols; ++c) dst[c] += src[c];
      bits |= in_mask[edges[e]];
    }
    out_mask[i] = bits;
    if (begin == end) continue;
    const double inv = 1.0 / static_cast<double>(end - begin);
    for (std::size_t c = 0; c < cols; ++c) dst[c] *= inv;
  }
}

/// z += bias, then out = max(z, 0), row by row. out_mask, when given,
/// receives out's row masks.
void bias_relu(Mat& z, const std::vector<double>& bias, Mat& out,
               std::vector<std::uint64_t>* out_mask) {
  out.reshape(z.rows, z.cols);
  if (out_mask != nullptr) out_mask->resize(z.rows);
  for (std::size_t i = 0; i < z.rows; ++i) {
    double* __restrict zrow = &z.data[i * z.cols];
    double* __restrict yrow = &out.data[i * z.cols];
    std::uint64_t bits = 0;
    for (std::size_t k = 0; k < z.cols; ++k) {
      zrow[k] += bias[k];
      yrow[k] = std::max(zrow[k], 0.0);
      bits |= static_cast<std::uint64_t>(yrow[k] != 0.0) << k;
    }
    if (out_mask != nullptr) (*out_mask)[i] = bits;
  }
}

/// out = (z > 0) ? g : 0, elementwise over one hidden-wide row: the ReLU
/// derivative applied to g. Returns the row mask of z > 0. Written over
/// restrict pointers with the mask in its own loop so both loops vectorize
/// instead of branching on each entry.
std::uint64_t relu_grad_row(const double* __restrict z,
                            const double* __restrict g,
                            double* __restrict out) {
  constexpr std::size_t h = GnnConfig::kHiddenDim;
  for (std::size_t k = 0; k < h; ++k) out[k] = z[k] > 0.0 ? g[k] : 0.0;
  std::uint64_t bits = 0;
  for (std::size_t k = 0; k < h; ++k) {
    bits |= static_cast<std::uint64_t>(z[k] > 0.0) << k;
  }
  return bits;
}

}  // namespace

Gnn::Gnn(const GnnConfig& config, std::uint64_t seed) : config_(config) {
  util::Rng rng(seed ^ 0x6E6EULL);
  constexpr std::size_t d0 = GnnConfig::kInputDim;
  constexpr std::size_t h = GnnConfig::kHiddenDim;
  constexpr std::size_t m = GnnConfig::kMlpDim;

  layer1_.w_self = Mat(d0, h);
  layer1_.w_neigh = Mat(d0, h);
  layer1_.bias.assign(h, 0.0);
  layer2_.w_self = Mat(h, h);
  layer2_.w_neigh = Mat(h, h);
  layer2_.bias.assign(h, 0.0);
  mlp_w1_ = Mat(h, m);
  mlp_b1_.assign(m, 0.0);
  mlp_w2_.assign(m, 0.0);
  xavier_init(layer1_.w_self, rng);
  xavier_init(layer1_.w_neigh, rng);
  xavier_init(layer2_.w_self, rng);
  xavier_init(layer2_.w_neigh, rng);
  xavier_init(mlp_w1_, rng);
  xavier_init(mlp_w2_, m, rng);

  g_layer1_.w_self = Mat(d0, h);
  g_layer1_.w_neigh = Mat(d0, h);
  g_layer1_.bias.assign(h, 0.0);
  g_layer2_.w_self = Mat(h, h);
  g_layer2_.w_neigh = Mat(h, h);
  g_layer2_.bias.assign(h, 0.0);
  g_mlp_w1_ = Mat(h, m);
  g_mlp_b1_.assign(m, 0.0);
  g_mlp_w2_.assign(m, 0.0);

  const auto params = const_cast<Gnn*>(this)->param_views();
  adam_.resize(params.size() + 1);  // +1 for the scalar mlp_b2_
  for (std::size_t p = 0; p < params.size(); ++p) {
    adam_[p].m.assign(params[p]->size(), 0.0);
    adam_[p].v.assign(params[p]->size(), 0.0);
  }
  adam_.back().m.assign(1, 0.0);
  adam_.back().v.assign(1, 0.0);
}

std::vector<std::vector<double>*> Gnn::param_views() {
  return {&layer1_.w_self.data, &layer1_.w_neigh.data, &layer1_.bias,
          &layer2_.w_self.data, &layer2_.w_neigh.data, &layer2_.bias,
          &mlp_w1_.data,        &mlp_b1_,              &mlp_w2_};
}

std::vector<std::vector<double>*> Gnn::grad_views() {
  return {&g_layer1_.w_self.data, &g_layer1_.w_neigh.data, &g_layer1_.bias,
          &g_layer2_.w_self.data, &g_layer2_.w_neigh.data, &g_layer2_.bias,
          &g_mlp_w1_.data,        &g_mlp_b1_,              &g_mlp_w2_};
}

void Gnn::forward(const Subgraph& sample, GnnScratch& scratch) const {
  const std::size_t n = sample.node_count;
  constexpr std::size_t d0 = GnnConfig::kInputDim;
  constexpr std::size_t h = GnnConfig::kHiddenDim;
  constexpr std::size_t m = GnnConfig::kMlpDim;

  flatten_adjacency(sample, scratch);
  scratch.x.reshape(n, d0);
  std::copy(sample.features.begin(), sample.features.end(),
            scratch.x.data.begin());
  scratch.x_mask.resize(n);
  detail::row_masks(scratch.x.data.data(), n, d0, scratch.x_mask.data());

  // Layer 1.
  mean_aggregate_csr(scratch.adj_offsets, scratch.adj_edges, scratch.x,
                     scratch.x_mask, scratch.agg0, scratch.agg0_mask);
  scratch.z1.reshape(n, h);
  detail::gemm_masked(scratch.x.data.data(), scratch.x_mask.data(),
                      layer1_.w_self.data.data(), scratch.z1.data.data(), n,
                      d0, false);
  detail::gemm_masked(scratch.agg0.data.data(), scratch.agg0_mask.data(),
                      layer1_.w_neigh.data.data(), scratch.z1.data.data(), n,
                      d0, true);
  bias_relu(scratch.z1, layer1_.bias, scratch.h1, &scratch.h1_mask);

  // Layer 2.
  mean_aggregate_csr(scratch.adj_offsets, scratch.adj_edges, scratch.h1,
                     scratch.h1_mask, scratch.agg1, scratch.agg1_mask);
  scratch.z2.reshape(n, h);
  detail::gemm_masked(scratch.h1.data.data(), scratch.h1_mask.data(),
                      layer2_.w_self.data.data(), scratch.z2.data.data(), n,
                      h, false);
  detail::gemm_masked(scratch.agg1.data.data(), scratch.agg1_mask.data(),
                      layer2_.w_neigh.data.data(), scratch.z2.data.data(), n,
                      h, true);
  bias_relu(scratch.z2, layer2_.bias, scratch.h2, nullptr);

  // Mean pooling.
  scratch.pooled.assign(h, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < h; ++k) scratch.pooled[k] += scratch.h2.at(i, k);
  }
  if (n > 0) {
    for (double& value : scratch.pooled) value /= static_cast<double>(n);
  }

  // MLP head (h x m is register-sized; plain loops, reduction ascending).
  scratch.mlp_z.assign(m, 0.0);
  for (std::size_t a = 0; a < h; ++a) {
    const double pa = scratch.pooled[a];
    for (std::size_t k = 0; k < m; ++k) {
      scratch.mlp_z[k] += pa * mlp_w1_.at(a, k);
    }
  }
  for (std::size_t k = 0; k < m; ++k) scratch.mlp_z[k] += mlp_b1_[k];
  scratch.mlp_h = scratch.mlp_z;
  for (double& value : scratch.mlp_h) value = std::max(value, 0.0);

  scratch.logit = mlp_b2_;
  for (std::size_t k = 0; k < m; ++k) {
    scratch.logit += scratch.mlp_h[k] * mlp_w2_[k];
  }
  scratch.prob = 1.0 / (1.0 + std::exp(-scratch.logit));
}

double Gnn::predict(const Subgraph& sample, GnnScratch& scratch) const {
  forward(sample, scratch);
  return scratch.prob;
}

double Gnn::predict(const Subgraph& sample) const {
  GnnScratch scratch;
  return predict(sample, scratch);
}

void Gnn::backward(const Subgraph& sample, GnnScratch& scratch,
                   double dlogit) {
  const std::size_t n = sample.node_count;
  constexpr std::size_t d0 = GnnConfig::kInputDim;
  constexpr std::size_t h = GnnConfig::kHiddenDim;
  constexpr std::size_t m = GnnConfig::kMlpDim;

  // MLP head.
  g_mlp_b2_ += dlogit;
  scratch.d_mlp_h.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    g_mlp_w2_[k] += dlogit * scratch.mlp_h[k];
    scratch.d_mlp_h[k] = dlogit * mlp_w2_[k];
  }
  scratch.d_mlp_z.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    scratch.d_mlp_z[k] = scratch.mlp_z[k] > 0.0 ? scratch.d_mlp_h[k] : 0.0;
    g_mlp_b1_[k] += scratch.d_mlp_z[k];
  }
  // d_mlp_z is ReLU-masked too: its zero entries are skipped, exactly as
  // in the masked kernels (every sum here starts at +0.0).
  scratch.d_pooled.assign(h, 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    const double dz = scratch.d_mlp_z[k];
    if (dz == 0.0) continue;
    for (std::size_t a = 0; a < h; ++a) {
      g_mlp_w1_.at(a, k) += scratch.pooled[a] * dz;
      scratch.d_pooled[a] += mlp_w1_.at(a, k) * dz;
    }
  }

  // Un-pool (mean): every row of d_h2 is the same row d_pooled / n.
  scratch.d_h2_row.resize(h);
  const double inv_n = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  for (std::size_t k = 0; k < h; ++k) {
    scratch.d_h2_row[k] = scratch.d_pooled[k] * inv_n;
  }

  // Layer 2 backward: d_z2 is that row masked by z2 > 0.
  scratch.d_z2.reshape(n, h);
  scratch.z2_mask.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.z2_mask[i] =
        relu_grad_row(&scratch.z2.data[i * h], scratch.d_h2_row.data(),
                      &scratch.d_z2.data[i * h]);
  }
  detail::gemm_at_masked(scratch.h1.data.data(), scratch.h1_mask.data(),
                         scratch.d_z2.data.data(),
                         g_layer2_.w_self.data.data(), n, h);
  detail::gemm_at_masked(scratch.agg1.data.data(), scratch.agg1_mask.data(),
                         scratch.d_z2.data.data(),
                         g_layer2_.w_neigh.data.data(), n, h);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < h; ++k) {
      g_layer2_.bias[k] += scratch.d_z2.at(i, k);
    }
  }
  // d_h1 = d_z2 * W2s^T and d_agg1 = d_z2 * W2n^T. Each term
  // d_z2[i][j] * W[q][j] is either 0 or d_h2_row[j] * W[q][j], so both are
  // sums of the active rows of g_wt = d_h2_row (.) W^T.
  auto stage_g_wt = [&](const Mat& w) {
    scratch.g_wt.reshape(h, h);
    for (std::size_t j = 0; j < h; ++j) {
      for (std::size_t q = 0; q < h; ++q) {
        scratch.g_wt.at(j, q) = scratch.d_h2_row[j] * w.at(q, j);
      }
    }
  };
  scratch.d_h1.reshape(n, h);
  scratch.d_agg1.reshape(n, h);
  stage_g_wt(layer2_.w_self);
  detail::masked_row_sum(scratch.z2_mask.data(), scratch.g_wt.data.data(),
                         scratch.d_h1.data.data(), n);
  stage_g_wt(layer2_.w_neigh);
  detail::masked_row_sum(scratch.z2_mask.data(), scratch.g_wt.data.data(),
                         scratch.d_agg1.data.data(), n);
  // Transpose of mean aggregation over the CSR rows:
  // d_h1[j] += sum_{i : j in N(i)} d_agg1[i] / |N(i)|.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t begin = scratch.adj_offsets[i];
    const std::uint32_t end = scratch.adj_offsets[i + 1];
    if (begin == end) continue;
    const double inv = 1.0 / static_cast<double>(end - begin);
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::uint32_t j = scratch.adj_edges[e];
      for (std::size_t c = 0; c < h; ++c) {
        scratch.d_h1.at(j, c) += scratch.d_agg1.at(i, c) * inv;
      }
    }
  }

  // Layer 1 backward.
  scratch.d_z1.reshape(n, h);
  for (std::size_t i = 0; i < n; ++i) {
    relu_grad_row(&scratch.z1.data[i * h], &scratch.d_h1.data[i * h],
                  &scratch.d_z1.data[i * h]);
  }
  detail::gemm_at_masked(scratch.x.data.data(), scratch.x_mask.data(),
                         scratch.d_z1.data.data(),
                         g_layer1_.w_self.data.data(), n, d0);
  detail::gemm_at_masked(scratch.agg0.data.data(), scratch.agg0_mask.data(),
                         scratch.d_z1.data.data(),
                         g_layer1_.w_neigh.data.data(), n, d0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < h; ++k) {
      g_layer1_.bias[k] += scratch.d_z1.at(i, k);
    }
  }
}

void Gnn::adam_step() {
  ++adam_t_;
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEps = 1e-8;
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(adam_t_));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(adam_t_));

  auto params = param_views();
  auto grads = grad_views();
  for (std::size_t p = 0; p < params.size(); ++p) {
    auto& param = *params[p];
    auto& grad = *grads[p];
    auto& state = adam_[p];
    for (std::size_t i = 0; i < param.size(); ++i) {
      state.m[i] = kBeta1 * state.m[i] + (1.0 - kBeta1) * grad[i];
      state.v[i] = kBeta2 * state.v[i] + (1.0 - kBeta2) * grad[i] * grad[i];
      const double m_hat = state.m[i] / bias1;
      const double v_hat = state.v[i] / bias2;
      param[i] -= config_.learning_rate *
                  (m_hat / (std::sqrt(v_hat) + kEps) +
                   GnnConfig::kWeightDecay * param[i]);
      grad[i] = 0.0;
    }
  }
  // Scalar bias.
  auto& state = adam_.back();
  state.m[0] = kBeta1 * state.m[0] + (1.0 - kBeta1) * g_mlp_b2_;
  state.v[0] = kBeta2 * state.v[0] + (1.0 - kBeta2) * g_mlp_b2_ * g_mlp_b2_;
  mlp_b2_ -= config_.learning_rate *
             ((state.m[0] / bias1) / (std::sqrt(state.v[0] / bias2) + kEps));
  g_mlp_b2_ = 0.0;
}

double Gnn::train_epoch(const std::vector<Subgraph>& samples,
                        const std::vector<std::size_t>& order,
                        GnnScratch& scratch) {
  double loss_sum = 0.0;
  std::size_t in_batch = 0;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const Subgraph& sample = samples[order[pos]];
    forward(sample, scratch);
    const double p = std::clamp(scratch.prob, 1e-9, 1.0 - 1e-9);
    loss_sum += -(sample.label * std::log(p) +
                  (1.0 - sample.label) * std::log(1.0 - p));
    const double dlogit = (scratch.prob - sample.label) /
                          static_cast<double>(GnnConfig::kBatchSize);
    backward(sample, scratch, dlogit);
    if (++in_batch == GnnConfig::kBatchSize || pos + 1 == order.size()) {
      adam_step();
      in_batch = 0;
    }
  }
  return order.empty() ? 0.0 : loss_sum / static_cast<double>(order.size());
}

double Gnn::train_epoch(const std::vector<Subgraph>& samples,
                        const std::vector<std::size_t>& order) {
  GnnScratch scratch;
  return train_epoch(samples, order, scratch);
}

}  // namespace autolock::attack
