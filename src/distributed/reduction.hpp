// Deterministic tree-ordered reductions for the distributed layer.
//
// A distributed sum must not depend on how many ranks computed it, or the
// promise "the distributed solve is bit-identical to the serial facade for
// every rank count" is unkeepable: floating-point addition is not
// associative, and the serial engine's left-to-right order is exactly the
// one a blocked decomposition cannot reproduce.  This module fixes ONE
// summation order — the complete binary tree over the (power-of-two) index
// space — chosen because it is the order a recursive-doubling allreduce on
// a hypercube computes for free:
//
//   * within a rank, the block partial is the binary tree over the block
//     (an aligned power-of-two block is a complete subtree of the global
//     tree);
//   * across ranks, combining partners in bit order (bit 0 first) builds
//     ((r0+r1)+(r2+r3))+... — the remaining upper levels of the same tree.
//
// The grand total therefore equals the binary tree over the full vector,
// bit for bit, for ANY power-of-two rank count — including rank_count = 1
// and including a serial run through TreeEngine below.  That engine plugs
// the same order into solvers::IterationOptions::engine, which is how the
// serial facade reproduces a distributed residual stream exactly (see
// docs/distributed.md).
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <span>

#include "parallel/engine.hpp"

namespace qs::distributed {

/// Binary-tree reduction of leaf(i) over [begin, end).  The tree splits at
/// the largest power of two not exceeding the range size, so power-of-two
/// ranges (the only ones the distributed layer produces) halve exactly and
/// aligned sub-ranges are complete subtrees of the enclosing range's tree.
template <typename Leaf>
double tree_reduce(std::size_t begin, std::size_t end, const Leaf& leaf) {
  const std::size_t n = end - begin;
  switch (n) {
    case 0: return 0.0;
    case 1: return leaf(begin);
    case 2: return leaf(begin) + leaf(begin + 1);
    case 4: return (leaf(begin) + leaf(begin + 1)) +
                   (leaf(begin + 2) + leaf(begin + 3));
    default: break;
  }
  const std::size_t half = std::bit_ceil(n) / 2;
  return tree_reduce(begin, begin + half, leaf) +
         tree_reduce(begin + half, end, leaf);
}

/// Two tree reductions in one recursion: `leaf(i)` returns both leaves
/// (a parallel::PairSum), and each component is combined exactly as
/// tree_reduce combines it, so component k equals tree_reduce over the
/// k-th leaves bit for bit.
template <typename Leaf>
parallel::PairSum tree_reduce_pair(std::size_t begin, std::size_t end,
                                   const Leaf& leaf) {
  const auto add = [](const parallel::PairSum& a, const parallel::PairSum& b) {
    return parallel::PairSum{a[0] + b[0], a[1] + b[1]};
  };
  const std::size_t n = end - begin;
  switch (n) {
    case 0: return {0.0, 0.0};
    case 1: return leaf(begin);
    case 2: return add(leaf(begin), leaf(begin + 1));
    case 4: return add(add(leaf(begin), leaf(begin + 1)),
                       add(leaf(begin + 2), leaf(begin + 3)));
    default: break;
  }
  const std::size_t half = std::bit_ceil(n) / 2;
  return add(tree_reduce_pair(begin, begin + half, leaf),
             tree_reduce_pair(begin + half, end, leaf));
}

/// Tree-ordered sum of a span.
inline double tree_sum(std::span<const double> v) {
  const double* p = v.data();
  return tree_reduce(std::size_t{0}, v.size(),
                     [p](std::size_t i) { return p[i]; });
}

/// Tree-ordered 1-norm.
inline double tree_abs_sum(std::span<const double> v) {
  const double* p = v.data();
  return tree_reduce(std::size_t{0}, v.size(),
                     [p](std::size_t i) { return std::abs(p[i]); });
}

/// Tree-ordered sum of squares.
inline double tree_sum_squares(std::span<const double> v) {
  const double* p = v.data();
  return tree_reduce(std::size_t{0}, v.size(),
                     [p](std::size_t i) { return p[i] * p[i]; });
}

/// Tree-ordered inner product.  Requires equal lengths.
inline double tree_dot(std::span<const double> a, std::span<const double> b) {
  const double* pa = a.data();
  const double* pb = b.data();
  return tree_reduce(std::size_t{0}, a.size(),
                     [pa, pb](std::size_t i) { return pa[i] * pb[i]; });
}

/// Serial engine whose reductions all use the tree order above.
/// reduce_partials / reduce_pair run their kernels per element so the
/// combination order is the engine's, not the kernel body's — slower than a
/// fused sweep, but this engine exists for equivalence testing and facade
/// comparisons, not for production throughput.
class TreeEngine final : public parallel::Engine {
 public:
  std::string_view name() const override { return "tree-serial"; }
  unsigned concurrency() const override { return 1; }
  void dispatch(std::size_t n, const parallel::RangeKernel& kernel) const override;
  double reduce_sum(std::span<const double> v) const override;
  double reduce_abs_sum(std::span<const double> v) const override;
  double reduce_sum_squares(std::span<const double> v) const override;
  double reduce_dot(std::span<const double> a,
                    std::span<const double> b) const override;
  double reduce_partials(std::size_t n,
                         const parallel::PartialKernel& kernel) const override;
  parallel::PairSum reduce_pair(std::size_t n,
                                const parallel::PairKernel& kernel) const override;
};

/// Process-lifetime TreeEngine instance.
const parallel::Engine& tree_engine();

}  // namespace qs::distributed
