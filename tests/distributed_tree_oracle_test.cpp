// Bitwise oracle for the tree reductions of distributed/reduction.hpp.
//
// tree_reduce / tree_reduce_pair evaluate the binary tree chunk by chunk,
// level by level, and merge the chunk sums on a binary-counter stack.  The
// recursive evaluation they replaced is kept below as the reference: every
// size, offset, leaf kind and special value here must reduce to the same
// bits on both.  (The TreeReduction tests in distributed_exchange_test.cpp
// only compare the library with itself across rank splits.)
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "distributed/reduction.hpp"
#include "parallel/engine.hpp"
#include "solvers/power_iteration.hpp"
#include "support/rng.hpp"

namespace qs::distributed {
namespace {

namespace oracle {

/// The recursive tree: split at bit_ceil(n) / 2, down to 4-element leaves.
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

/// The same recursion over both components of a paired leaf.
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

}  // namespace oracle

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// bits(), except that every NaN reads as one value: the sign and payload
/// of a NaN sum are fixed neither by IEEE 754 nor by the compiler, which
/// may rewrite (-a) + (-b) as -(a + b) in one evaluation and not the other.
std::uint64_t value_bits(double v) {
  return std::isnan(v) ? bits(std::numeric_limits<double>::quiet_NaN()) : bits(v);
}

constexpr std::size_t kChunk = detail::kTreeChunk;

/// Every n in 0..70, every power of two up to 2^22, and sizes around the
/// chunk boundary.
std::vector<std::size_t> sizes() {
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n <= 70; ++n) out.push_back(n);
  for (std::size_t n = 128; n <= (std::size_t{1} << 22); n *= 2) out.push_back(n);
  for (const std::size_t n : {kChunk - 1, kChunk + 1, 3 * kChunk + 5}) out.push_back(n);
  return out;
}

/// Entries spread over many binades, so a different association of the
/// same leaves almost surely rounds differently.
std::vector<double> wide_values(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  for (double& x : v) {
    x = std::ldexp(rng.uniform(-1.0, 1.0), static_cast<int>(rng.uniform(-40.0, 40.0)));
  }
  return v;
}

constexpr std::size_t kLargest = std::size_t{1} << 22;

TEST(TreeReductionOracle, ScalarTreeMatchesTheRecursionAtEverySize) {
  const auto v = wide_values(kLargest + 3 * kChunk + 5, 1);
  const double* p = v.data();
  const auto leaf = [p](std::size_t i) { return p[i]; };
  for (const std::size_t n : sizes()) {
    ASSERT_EQ(bits(tree_reduce(0, n, leaf)), bits(oracle::tree_reduce(0, n, leaf)))
        << "n=" << n;
  }
}

TEST(TreeReductionOracle, PairedTreeMatchesTheRecursionAtEverySize) {
  const auto a = wide_values(kLargest + 3 * kChunk + 5, 2);
  const auto b = wide_values(a.size(), 3);
  const double* pa = a.data();
  const double* pb = b.data();
  const auto leaf = [pa, pb](std::size_t i) { return parallel::PairSum{pa[i], pb[i]}; };
  for (const std::size_t n : sizes()) {
    const parallel::PairSum got = tree_reduce_pair(0, n, leaf);
    const parallel::PairSum want = oracle::tree_reduce_pair(0, n, leaf);
    ASSERT_EQ(bits(got[0]), bits(want[0])) << "n=" << n;
    ASSERT_EQ(bits(got[1]), bits(want[1])) << "n=" << n;
  }
}

TEST(TreeReductionOracle, NonZeroBeginMatchesTheRecursion) {
  const auto v = wide_values(8 * kChunk + 64, 4);
  const double* p = v.data();
  const auto leaf = [p](std::size_t i) { return p[i]; };
  const auto pair = [p](std::size_t i) { return parallel::PairSum{p[i], -2.0 * p[i]}; };
  for (const std::size_t begin : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                                  kChunk, kChunk + 7, 2 * kChunk}) {
    for (const std::size_t n : {std::size_t{5}, std::size_t{64}, std::size_t{69},
                                kChunk - 1, kChunk, kChunk + 1, 4 * kChunk,
                                3 * kChunk + 5}) {
      SCOPED_TRACE("begin=" + std::to_string(begin) + " n=" + std::to_string(n));
      ASSERT_EQ(bits(tree_reduce(begin, begin + n, leaf)),
                bits(oracle::tree_reduce(begin, begin + n, leaf)));
      const parallel::PairSum got = tree_reduce_pair(begin, begin + n, pair);
      const parallel::PairSum want = oracle::tree_reduce_pair(begin, begin + n, pair);
      ASSERT_EQ(bits(got[0]), bits(want[0]));
      ASSERT_EQ(bits(got[1]), bits(want[1]));
    }
  }
}

/// The power loop's leaf terms, at every size.
template <typename Term>
void expect_term_matches(const Term& term, const char* name) {
  for (const std::size_t n : sizes()) {
    const parallel::PairSum got = tree_reduce_pair(0, n, term);
    const parallel::PairSum want = oracle::tree_reduce_pair(0, n, term);
    ASSERT_EQ(bits(got[0]), bits(want[0])) << name << " n=" << n;
    ASSERT_EQ(bits(got[1]), bits(want[1])) << name << " n=" << n;
  }
}

TEST(TreeReductionOracle, PowerLoopTermsMatchTheRecursion) {
  const auto x = wide_values(kLargest + 3 * kChunk + 5, 5);
  const auto y = wide_values(x.size(), 6);
  const double* xp = x.data();
  const double* yp = y.data();
  const double lambda = 1.7;
  const double mu = 0.3;
  expect_term_matches(solvers::RayleighTerm{xp, yp}, "rayleigh");
  expect_term_matches(solvers::ResidualNorm1Term<true, true>{xp, yp, lambda, mu},
                      "residual check+shift");
  expect_term_matches(solvers::ResidualNorm1Term<true, false>{xp, yp, lambda, mu},
                      "residual check");
  expect_term_matches(solvers::ResidualNorm1Term<false, true>{xp, yp, lambda, mu},
                      "residual shift");
  expect_term_matches(solvers::ResidualNorm1Term<false, false>{xp, yp, lambda, mu},
                      "residual plain");
}

TEST(TreeReductionOracle, SpanHelpersMatchTheRecursion) {
  const auto a = wide_values(kLargest + 3 * kChunk + 5, 7);
  const auto b = wide_values(a.size(), 8);
  for (const std::size_t n : sizes()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::span<const double> sa(a.data(), n);
    const std::span<const double> sb(b.data(), n);
    const double* pa = a.data();
    const double* pb = b.data();
    const auto oracle_sum = [n](const auto& leaf) {
      return bits(oracle::tree_reduce(0, n, leaf));
    };
    ASSERT_EQ(bits(tree_sum(sa)), oracle_sum([pa](std::size_t i) { return pa[i]; }));
    ASSERT_EQ(bits(tree_abs_sum(sa)),
              oracle_sum([pa](std::size_t i) { return std::abs(pa[i]); }));
    ASSERT_EQ(bits(tree_sum_squares(sa)),
              oracle_sum([pa](std::size_t i) { return pa[i] * pa[i]; }));
    ASSERT_EQ(bits(tree_dot(sa, sb)),
              oracle_sum([pa, pb](std::size_t i) { return pa[i] * pb[i]; }));
  }
}

TEST(TreeReductionOracle, TreeEngineMatchesTheRecursion) {
  const parallel::Engine& engine = tree_engine();
  const auto a = wide_values(kLargest + 3 * kChunk + 5, 9);
  const auto b = wide_values(a.size(), 10);
  const double* pa = a.data();
  const double* pb = b.data();
  // Range kernels as the solvers write them: a left-to-right loop, which
  // the engine only ever calls on one element.
  const auto partial = [pa](std::size_t begin, std::size_t end) {
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) acc += pa[i] * pa[i];
    return acc;
  };
  const auto pair = [pa, pb](std::size_t begin, std::size_t end) {
    parallel::PairSum acc{0.0, 0.0};
    for (std::size_t i = begin; i < end; ++i) {
      acc[0] += pa[i];
      acc[1] += std::abs(pa[i] - pb[i]);
    }
    return acc;
  };
  for (const std::size_t n : sizes()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ASSERT_EQ(bits(engine.reduce_partials(n, partial)),
              bits(oracle::tree_reduce(0, n, [&partial](std::size_t i) {
                return partial(i, i + 1);
              })));
    const parallel::PairSum got = engine.reduce_pair(n, pair);
    const parallel::PairSum want = oracle::tree_reduce_pair(
        0, n, [&pair](std::size_t i) { return pair(i, i + 1); });
    ASSERT_EQ(bits(got[0]), bits(want[0]));
    ASSERT_EQ(bits(got[1]), bits(want[1]));
  }
}

TEST(TreeReductionOracle, SpecialLeavesMatchTheRecursion) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double sub = std::numeric_limits<double>::min() / 3.0;
  // An all-(-0) sum keeps its sign only if every addition sees two
  // negative zeros; subnormal sums are exact; inf and NaN absorb the rest.
  const std::vector<std::vector<double>> sets = {
      {-0.0},
      {0.0, -0.0},
      {tiny, -tiny, sub, -sub, -0.0},
      {sub, 1e-300, -1e-300, tiny},
      {inf, 1.0, -2.0},
      {-inf, 1.0, tiny},
      {inf, -inf, 1.0},
      {nan, 1.0, -1.0},
      {nan, inf, -0.0, sub},
  };
  for (std::size_t s = 0; s < sets.size(); ++s) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{37},
                                kChunk - 1, kChunk, kChunk + 1, 3 * kChunk + 5,
                                8 * kChunk}) {
      SCOPED_TRACE("set=" + std::to_string(s) + " n=" + std::to_string(n));
      std::vector<double> v(n);
      Xoshiro256 rng(100 + s);
      // Mostly the set's first value, with the others at seeded positions
      // in varying chunks and levels.
      for (double& x : v) {
        x = sets[s][rng.uniform() < 0.9 ? 0 : rng.uniform_index(sets[s].size())];
      }
      const double* p = v.data();
      const auto leaf = [p](std::size_t i) { return p[i]; };
      const auto pair = [p](std::size_t i) { return parallel::PairSum{p[i], -p[i]}; };
      ASSERT_EQ(value_bits(tree_reduce(0, n, leaf)),
                value_bits(oracle::tree_reduce(0, n, leaf)));
      const parallel::PairSum got = tree_reduce_pair(0, n, pair);
      const parallel::PairSum want = oracle::tree_reduce_pair(0, n, pair);
      ASSERT_EQ(value_bits(got[0]), value_bits(want[0]));
      ASSERT_EQ(value_bits(got[1]), value_bits(want[1]));
      ASSERT_EQ(value_bits(tree_engine().reduce_sum(v)),
                value_bits(oracle::tree_reduce(0, n, leaf)));
    }
  }
}

}  // namespace
}  // namespace qs::distributed
