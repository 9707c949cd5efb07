#include "util/rng.hpp"

namespace autolock::util {

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  if (k > n) throw std::invalid_argument("Rng::sample_indices: k > n");
  // For small k relative to n, rejection sampling would be fine, but a
  // partial Fisher–Yates over an index vector is simple and O(n).
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + next_below(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace autolock::util
