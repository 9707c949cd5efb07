#include "attacks/gnn.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

namespace autolock::attack {

// Each kernel holds one 32-wide output row in kRowVecs vector accumulators
// of kLanes doubles (4 x 8 with AVX-512F, 8 x 4 otherwise) and adds one
// 32-wide row of the right operand per marked term, so every output element
// still sums its terms in ascending order: packed vmulpd/vaddpd perform the
// same IEEE operation per lane as their scalar forms, and gnn.cpp is
// compiled with -ffp-contract=off so no FMA rounds differently. The
// accumulators are GNU vector-extension variables (GCC and Clang): on a
// narrower target the compiler splits each into halves.

namespace {

#if defined(__AVX512F__)
constexpr std::size_t kLanes = 8;
#else
constexpr std::size_t kLanes = 4;
#endif
constexpr std::size_t kRowVecs = detail::kKernelWidth / kLanes;

typedef double Vec __attribute__((vector_size(kLanes * sizeof(double))));

static_assert(detail::kKernelWidth % kLanes == 0, "a Row holds whole vectors");
static_assert(GnnConfig::kInputDim <= 64 && GnnConfig::kHiddenDim <= 64,
              "row masks are 64 bits wide");

inline Vec vec_load(const double* p) {
  Vec v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void vec_store(double* p, Vec v) { std::memcpy(p, &v, sizeof(v)); }

inline Vec vec_splat(double x) {
  return [x]<std::size_t... l>(std::index_sequence<l...>) {
    return Vec{(static_cast<void>(l), x)...};
  }(std::make_index_sequence<kLanes>{});
}

/// One 32-wide output row in registers. Every access below names a
/// compile-time member index, so GCC keeps the members in registers.
struct Row {
  Vec v[kRowVecs];
};

/// Calls f(q) for q = 0 .. kRowVecs - 1, each a compile-time constant.
template <class F>
inline void each_vec(F&& f) {
  [&]<std::size_t... q>(std::index_sequence<q...>) {
    (f(std::integral_constant<std::size_t, q>{}), ...);
  }(std::make_index_sequence<kRowVecs>{});
}

inline Row row_splat(double x) {
  Row r;
  const Vec v = vec_splat(x);
  each_vec([&](auto q) { r.v[q] = v; });
  return r;
}

inline Row row_load(const double* p) {
  Row r;
  each_vec([&](auto q) { r.v[q] = vec_load(p + q * kLanes); });
  return r;
}

inline void row_store(double* p, const Row& r) {
  each_vec([&](auto q) { vec_store(p + q * kLanes, r.v[q]); });
}

/// acc += s * b (one 32-wide row).
inline void row_axpy(Row& acc, double s, const double* b) {
  const Vec sv = vec_splat(s);
  each_vec([&](auto q) { acc.v[q] += sv * vec_load(b + q * kLanes); });
}

/// acc += b (one 32-wide row).
inline void row_add(Row& acc, const double* b) {
  each_vec([&](auto q) { acc.v[q] += vec_load(b + q * kLanes); });
}

}  // namespace

namespace detail {

namespace {

// The left operand of the two product kernels is dense (entry p of row i
// is a[i * k + p]) or packed (PackedRows: the marked entries follow one
// another, ascending column within a row).

/// c(m x 32) = (or +=) a * b over the marked entries of a.
template <bool kPacked>
void gemm_rows(const double* a_, const std::uint64_t* mask, const double* b_,
               double* c_, std::size_t m, std::size_t k, bool accumulate) {
  const double* __restrict a = a_;
  const double* __restrict b = b_;
  double* __restrict c = c_;
  for (std::size_t i = 0; i < m; ++i) {
    double* __restrict crow = c + i * kKernelWidth;
    Row acc = accumulate ? row_load(crow) : row_splat(0.0);
    for (std::uint64_t bits = mask[i]; bits != 0; bits &= bits - 1) {
      const auto p = static_cast<std::size_t>(std::countr_zero(bits));
      const double s = kPacked ? *a++ : a[i * k + p];
      row_axpy(acc, s, b + p * kKernelWidth);
    }
    row_store(crow, acc);
  }
}

/// c(k x 32) += a^T * d over the marked entries of a.
template <bool kPacked>
void gemm_at_rows(const double* a_, const std::uint64_t* mask,
                  const double* d_, double* c_, std::size_t m,
                  std::size_t k) {
  const double* __restrict a = a_;
  const double* __restrict d = d_;
  double* __restrict c = c_;
  // Transpose the row masks, 64 rows at a time, into per-column row sets,
  // so each output row c[p] stays in registers while it gathers its terms
  // from the rows of a that mark column p (ascending row order). A packed
  // entry (i, p) sits at its row's start plus the count of lower marks.
  std::uint64_t col_rows[64];
  std::size_t row_start[64];
  std::size_t next_start = 0;
  for (std::size_t r0 = 0; r0 < m; r0 += 64) {
    const std::size_t rows = std::min<std::size_t>(64, m - r0);
    std::fill(col_rows, col_rows + k, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint64_t row_mask = mask[r0 + r];
      if constexpr (kPacked) {
        row_start[r] = next_start;
        next_start += static_cast<std::size_t>(std::popcount(row_mask));
      }
      for (std::uint64_t bits = row_mask; bits != 0; bits &= bits - 1) {
        col_rows[std::countr_zero(bits)] |= std::uint64_t{1} << r;
      }
    }
    for (std::size_t p = 0; p < k; ++p) {
      if (col_rows[p] == 0) continue;
      double* __restrict crow = c + p * kKernelWidth;
      Row acc = row_load(crow);
      const std::uint64_t below = (std::uint64_t{1} << p) - 1;
      for (std::uint64_t bits = col_rows[p]; bits != 0; bits &= bits - 1) {
        const auto r = static_cast<std::size_t>(std::countr_zero(bits));
        const std::size_t i = r0 + r;
        const double s =
            kPacked ? a[row_start[r] + static_cast<std::size_t>(
                                           std::popcount(mask[i] & below))]
                    : a[i * k + p];
        row_axpy(acc, s, d + i * kKernelWidth);
      }
      row_store(crow, acc);
    }
  }
}

}  // namespace

void gemm_masked(const double* a, const std::uint64_t* mask, const double* b,
                 double* c, std::size_t m, std::size_t k, bool accumulate) {
  gemm_rows<false>(a, mask, b, c, m, k, accumulate);
}

void gemm_packed(const std::uint64_t* mask, const double* values,
                 const double* b, double* c, std::size_t m, bool accumulate) {
  gemm_rows<true>(values, mask, b, c, m, 0, accumulate);
}

void gemm_at_masked(const double* a, const std::uint64_t* mask,
                    const double* d, double* c, std::size_t m, std::size_t k) {
  gemm_at_rows<false>(a, mask, d, c, m, k);
}

void gemm_at_packed(const std::uint64_t* mask, const double* values,
                    const double* d, double* c, std::size_t m,
                    std::size_t k) {
  gemm_at_rows<true>(values, mask, d, c, m, k);
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

/// out(n x h) = mean of rows of in(n x h) over the sample's adjacency. A
/// row's mask is the OR of its neighbours' masks: a mean of rows that are
/// zero in a column is +0.0 there.
void mean_aggregate(const LocalAdjacency& adjacency, const Mat& in,
                    const std::vector<std::uint64_t>& in_mask, Mat& out,
                    std::vector<std::uint64_t>& out_mask) {
  constexpr std::size_t h = GnnConfig::kHiddenDim;
  const std::size_t n = in.rows;
  out.reshape(n, h);
  out_mask.resize(n);
  const double* __restrict src = in.data.data();
  double* __restrict dst = out.data.data();
  for (std::size_t i = 0; i < n; ++i) {
    const auto nbrs = adjacency.neighbors(i);
    Row acc = row_splat(0.0);
    std::uint64_t bits = 0;
    for (const std::uint32_t j : nbrs) {
      row_add(acc, src + j * h);
      bits |= in_mask[j];
    }
    out_mask[i] = bits;
    if (!nbrs.empty()) {
      const Vec inv = vec_splat(1.0 / static_cast<double>(nbrs.size()));
      each_vec([&](auto q) { acc.v[q] *= inv; });
    }
    row_store(dst + i * h, acc);
  }
}

/// z += bias, then out = max(z, 0), row by row over hidden-wide rows.
/// out_mask, when given, receives out's row masks. The select keeps
/// std::max(z, 0.0) exactly: a -0.0 or NaN z passes through.
void bias_relu(Mat& z, const std::vector<double>& bias, Mat& out,
               std::vector<std::uint64_t>* out_mask) {
  constexpr std::size_t h = GnnConfig::kHiddenDim;
  const std::size_t n = z.rows;
  out.reshape(n, h);
  if (out_mask != nullptr) out_mask->resize(n);
  const Row b = row_load(bias.data());
  const Vec zero = vec_splat(0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* __restrict zrow = &z.data[i * h];
    double* __restrict yrow = &out.data[i * h];
    Row zr = row_load(zrow);
    Row yr;
    each_vec([&](auto q) {
      zr.v[q] += b.v[q];
      yr.v[q] = zr.v[q] < zero ? zero : zr.v[q];
    });
    row_store(zrow, zr);
    row_store(yrow, yr);
    if (out_mask == nullptr) continue;
    std::uint64_t bits = 0;
    for (std::size_t k = 0; k < h; ++k) {
      bits |= static_cast<std::uint64_t>(yrow[k] != 0.0) << k;
    }
    (*out_mask)[i] = bits;
  }
}

/// acc(1 x h) += the sum of the rows of m(n x h), ascending row order.
void add_row_sums(const Mat& m, std::vector<double>& acc) {
  Row sum = row_load(acc.data());
  for (std::size_t i = 0; i < m.rows; ++i) {
    row_add(sum, &m.data[i * GnnConfig::kHiddenDim]);
  }
  row_store(acc.data(), sum);
}

/// dst = src^T for a square hidden-wide matrix.
void transpose_into(const Mat& src, Mat& dst) {
  constexpr std::size_t h = GnnConfig::kHiddenDim;
  dst.reshape(h, h);
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < h; ++c) dst.at(c, r) = src.at(r, c);
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
  refresh_transposes();
}

void Gnn::refresh_transposes() {
  transpose_into(layer2_.w_self, w2_self_t_);
  transpose_into(layer2_.w_neigh, w2_neigh_t_);
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
  constexpr std::size_t h = GnnConfig::kHiddenDim;
  constexpr std::size_t m = GnnConfig::kMlpDim;

  // Layer 1, from the sample's packed features and neighbour mean.
  scratch.z1.reshape(n, h);
  detail::gemm_packed(sample.features.mask.data(),
                      sample.features.values.data(),
                      layer1_.w_self.data.data(), scratch.z1.data.data(), n,
                      false);
  detail::gemm_packed(sample.neighbor_mean.mask.data(),
                      sample.neighbor_mean.values.data(),
                      layer1_.w_neigh.data.data(), scratch.z1.data.data(), n,
                      true);
  bias_relu(scratch.z1, layer1_.bias, scratch.h1, &scratch.h1_mask);

  // Layer 2.
  mean_aggregate(sample.adjacency, scratch.h1, scratch.h1_mask, scratch.agg1,
                 scratch.agg1_mask);
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
  add_row_sums(scratch.h2, scratch.pooled);
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
  add_row_sums(scratch.d_z2, g_layer2_.bias);
  // d_h1 = d_z2 * W2s^T and d_agg1 = d_z2 * W2n^T. Each term
  // d_z2[i][j] * W[q][j] is either 0 or d_h2_row[j] * W[q][j], so both are
  // sums of the active rows of g_wt = d_h2_row (.) W^T: row j of the cached
  // transpose scaled by d_h2_row[j].
  auto stage_g_wt = [&](const Mat& w_t) {
    scratch.g_wt.reshape(h, h);
    for (std::size_t j = 0; j < h; ++j) {
      const Vec g = vec_splat(scratch.d_h2_row[j]);
      Row row = row_load(&w_t.data[j * h]);
      each_vec([&](auto q) { row.v[q] = g * row.v[q]; });
      row_store(&scratch.g_wt.data[j * h], row);
    }
  };
  scratch.d_h1.reshape(n, h);
  scratch.d_agg1.reshape(n, h);
  stage_g_wt(w2_self_t_);
  detail::masked_row_sum(scratch.z2_mask.data(), scratch.g_wt.data.data(),
                         scratch.d_h1.data.data(), n);
  stage_g_wt(w2_neigh_t_);
  detail::masked_row_sum(scratch.z2_mask.data(), scratch.g_wt.data.data(),
                         scratch.d_agg1.data.data(), n);
  // Transpose of mean aggregation over the CSR rows:
  // d_h1[j] += sum_{i : j in N(i)} d_agg1[i] / |N(i)|.
  double* __restrict d_h1 = scratch.d_h1.data.data();
  const double* __restrict d_agg1 = scratch.d_agg1.data.data();
  for (std::size_t i = 0; i < n; ++i) {
    const auto nbrs = sample.adjacency.neighbors(i);
    if (nbrs.empty()) continue;
    const double inv = 1.0 / static_cast<double>(nbrs.size());
    for (const std::uint32_t j : nbrs) {
      Row acc = row_load(d_h1 + j * h);
      row_axpy(acc, inv, d_agg1 + i * h);
      row_store(d_h1 + j * h, acc);
    }
  }

  // Layer 1 backward.
  scratch.d_z1.reshape(n, h);
  for (std::size_t i = 0; i < n; ++i) {
    relu_grad_row(&scratch.z1.data[i * h], &scratch.d_h1.data[i * h],
                  &scratch.d_z1.data[i * h]);
  }
  detail::gemm_at_packed(sample.features.mask.data(),
                         sample.features.values.data(),
                         scratch.d_z1.data.data(),
                         g_layer1_.w_self.data.data(), n, d0);
  detail::gemm_at_packed(sample.neighbor_mean.mask.data(),
                         sample.neighbor_mean.values.data(),
                         scratch.d_z1.data.data(),
                         g_layer1_.w_neigh.data.data(), n, d0);
  add_row_sums(scratch.d_z1, g_layer1_.bias);
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
  refresh_transposes();
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

}  // namespace autolock::attack
