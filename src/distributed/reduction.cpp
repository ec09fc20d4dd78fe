#include "distributed/reduction.hpp"

namespace qs::distributed {

void TreeEngine::dispatch(std::size_t n, const parallel::RangeKernel& kernel) const {
  if (n != 0) kernel(0, n);
}

double TreeEngine::reduce_sum(std::span<const double> v) const {
  return tree_sum(v);
}

double TreeEngine::reduce_abs_sum(std::span<const double> v) const {
  return tree_abs_sum(v);
}

double TreeEngine::reduce_sum_squares(std::span<const double> v) const {
  return tree_sum_squares(v);
}

double TreeEngine::reduce_dot(std::span<const double> a,
                              std::span<const double> b) const {
  return tree_dot(a, b);
}

double TreeEngine::reduce_partials(std::size_t n,
                                   const parallel::PartialKernel& kernel) const {
  // Single-element kernel invocations: the partial for [i, i+1) is exactly
  // the leaf value, so the combination order is the tree's regardless of how
  // the kernel body would have accumulated a wider range.
  return tree_reduce(std::size_t{0}, n,
                     [&kernel](std::size_t i) { return kernel(i, i + 1); });
}

parallel::PairSum TreeEngine::reduce_pair(std::size_t n,
                                          const parallel::PairKernel& kernel) const {
  return tree_reduce_pair(std::size_t{0}, n,
                          [&kernel](std::size_t i) { return kernel(i, i + 1); });
}

const parallel::Engine& tree_engine() {
  static const TreeEngine engine;
  return engine;
}

}  // namespace qs::distributed
