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
//
// The tree is evaluated in blocks, not by recursion: each chunk of
// kTreeChunk leaves is summed level by level in stack buffers (every level
// a plain loop the compiler vectorises), and chunk sums merge on a
// binary-counter stack.  Each addition has the same two operands as in the
// recursive definition, so the bits are the same; only the schedule
// differs.  tests/distributed_tree_oracle_test.cpp keeps the recursion as
// the reference.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <span>

#include "parallel/engine.hpp"

namespace qs::distributed {

namespace detail {

/// Leaves per chunk of the blocked evaluation: a power of two, so a chunk
/// is a complete subtree and its buffers (3/4 of a chunk per component)
/// stay on the stack.
inline constexpr std::size_t kTreeChunk = 1024;

/// The complete tree over the `m` leaves at `begin` (m a power of two, at
/// most kTreeChunk), evaluated level by level: the leaf fill adds adjacent
/// leaf pairs into `a`, and each further level adds adjacent entries of the
/// one below, alternating between `a` and `b` so every level is a plain
/// loop the compiler vectorises.  Component k of a leaf is reduced on its
/// own.  Every buffer entry is written before it is read.
template <std::size_t K, typename Leaf>
std::array<double, K> block_sum(std::size_t begin, std::size_t m,
                                const Leaf& leaf) {
  if (m == 1) return leaf(begin);
  double a[K][kTreeChunk / 2];
  double b[K][kTreeChunk / 4];
  std::size_t w = m / 2;  // entries in the newest level
  for (std::size_t j = 0; j < w; ++j) {
    const std::array<double, K> l = leaf(begin + 2 * j);
    const std::array<double, K> r = leaf(begin + 2 * j + 1);
    for (std::size_t k = 0; k < K; ++k) a[k][j] = l[k] + r[k];
  }
  const auto halve = [](const auto& src, auto& dst, std::size_t half) {
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t j = 0; j < half; ++j) {
        dst[k][j] = src[k][2 * j] + src[k][2 * j + 1];
      }
    }
  };
  const auto root = [](const auto& level) {
    std::array<double, K> out{};
    for (std::size_t k = 0; k < K; ++k) out[k] = level[k][0];
    return out;
  };
  for (;;) {
    if (w == 1) return root(a);
    halve(a, b, w /= 2);
    if (w == 1) return root(b);
    halve(b, a, w /= 2);
  }
}

/// The tree over [begin, end) with K-component leaves.  The range is cut,
/// left to right, into pieces of min(bit_floor(remaining), kTreeChunk)
/// leaves; each piece's block_sum goes on a binary-counter stack, where
/// equal-sized neighbours merge (left + right) into their parent.  A
/// power-of-two range thus collapses to its one root; any other range
/// leaves its bit_floor-sized pieces, largest first, which fold from the
/// right — the split at bit_floor(n) that defines the tree.  The stack
/// holds at most one piece per power of two, so 64 entries suffice.
template <std::size_t K, typename Leaf>
std::array<double, K> tree_reduce_k(std::size_t begin, std::size_t end,
                                    const Leaf& leaf) {
  std::array<double, K> value[64] = {};
  std::size_t size[64] = {};
  std::size_t depth = 0;
  while (begin < end) {
    std::size_t m = std::min(std::bit_floor(end - begin), kTreeChunk);
    std::array<double, K> v = block_sum<K>(begin, m, leaf);
    begin += m;
    while (depth > 0 && size[depth - 1] == m) {
      --depth;
      for (std::size_t k = 0; k < K; ++k) v[k] = value[depth][k] + v[k];
      m *= 2;
    }
    value[depth] = v;
    size[depth] = m;
    ++depth;
  }
  if (depth == 0) return {};
  std::array<double, K> total = value[--depth];
  while (depth > 0) {
    --depth;
    for (std::size_t k = 0; k < K; ++k) total[k] = value[depth][k] + total[k];
  }
  return total;
}

}  // namespace detail

/// Binary-tree reduction of leaf(i) over [begin, end).  The tree splits at
/// the largest power of two not exceeding the range size, so power-of-two
/// ranges (the only ones the distributed layer produces) halve exactly and
/// aligned sub-ranges are complete subtrees of the enclosing range's tree.
template <typename Leaf>
double tree_reduce(std::size_t begin, std::size_t end, const Leaf& leaf) {
  return detail::tree_reduce_k<1>(begin, end, [&leaf](std::size_t i) {
    return std::array<double, 1>{leaf(i)};
  })[0];
}

/// Two tree reductions in one sweep: `leaf(i)` returns both leaves (a
/// parallel::PairSum), and component k equals tree_reduce over the k-th
/// leaves bit for bit.
template <typename Leaf>
parallel::PairSum tree_reduce_pair(std::size_t begin, std::size_t end,
                                   const Leaf& leaf) {
  return detail::tree_reduce_k<2>(begin, end, leaf);
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
/// reduce_partials / reduce_pair run their kernels per element, so the
/// combination order is the engine's, not the kernel body's: each leaf is
/// one call through the kernel's FunctionRef into the chunk buffer, which
/// costs more than a fused sweep.  This engine exists for equivalence
/// testing and facade comparisons, not for production throughput.
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
