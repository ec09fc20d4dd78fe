// Bit-identity tests for the single-vector SIMD microkernels: every kernel
// tier (scalar, AVX2, AVX-512F) and every fused radix must reproduce the
// plain autovectorised banded loops EXACTLY — ASSERT_EQ on doubles, not
// ASSERT_NEAR.  This is the module's contract (see sv_microkernel.hpp): the
// single-vector kernel sits underneath every default solve, so switching
// tiers must not move a single bit of any residual trajectory.
#include "transforms/sv_microkernel.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "parallel/engine.hpp"
#include "support/rng.hpp"
#include "transforms/blocked_butterfly.hpp"
#include "transforms/butterfly.hpp"
#include "test_engines.hpp"

namespace qs::transforms {
namespace {

std::vector<Factor2> asymmetric_factors(unsigned nu, std::uint64_t seed) {
  std::vector<Factor2> sites;
  sites.reserve(nu);
  Xoshiro256 rng(seed);
  for (unsigned k = 0; k < nu; ++k) {
    sites.push_back(
        Factor2::asymmetric(rng.uniform(0.001, 0.4), rng.uniform(0.001, 0.4)));
  }
  return sites;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

std::vector<double> positive_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  for (double& x : v) x = rng.uniform(0.5, 2.0);
  return v;
}

void expect_bitwise(const std::vector<double>& expected,
                    const std::vector<double>& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << what << " index " << i;
  }
}

// The SIMD tables that actually compiled in and run on this CPU, with the
// scalar reference always first.
std::vector<const SvKernels*> available_tables() {
  std::vector<const SvKernels*> tables = {&scalar_sv_kernels()};
  if (const SvKernels* t = avx2_sv_kernels()) tables.push_back(t);
  if (const SvKernels* t = avx512_sv_kernels()) tables.push_back(t);
  return tables;
}

TEST(SvMicrokernel, SimdSpanKernelsBitwiseMatchScalarIncludingTails) {
  const SvKernels& scalar = scalar_sv_kernels();
  const Factor2 f = Factor2::asymmetric(0.013, 0.27);
  for (const SvKernels* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (std::size_t cnt :
         {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 15ul, 16ul, 17ul, 64ul, 101ul}) {
      const auto lo0 = random_vector(cnt, cnt);
      const auto hi0 = random_vector(cnt, cnt + 1);
      const auto s = positive_vector(cnt, cnt + 2);

      auto lo_a = lo0, hi_a = hi0, lo_b = lo0, hi_b = hi0;
      scalar.butterfly_span(lo_a.data(), hi_a.data(), cnt, f);
      table->butterfly_span(lo_b.data(), hi_b.data(), cnt, f);
      expect_bitwise(lo_a, lo_b, "butterfly_span lo");
      expect_bitwise(hi_a, hi_b, "butterfly_span hi");

      std::vector<double> ya(cnt), yb(cnt);
      scalar.mul_span(ya.data(), lo0.data(), s.data(), cnt);
      table->mul_span(yb.data(), lo0.data(), s.data(), cnt);
      expect_bitwise(ya, yb, "mul_span");

      auto za = lo0, zb = lo0;
      scalar.mul_span_inplace(za.data(), s.data(), cnt);
      table->mul_span_inplace(zb.data(), s.data(), cnt);
      expect_bitwise(za, zb, "mul_span_inplace");
    }
    // Broadcast row scalings of an interleaved panel: widths below, at, and
    // past each SIMD width, with tails.
    for (std::size_t m : {1ul, 2ul, 3ul, 8ul, 16ul}) {
      const std::size_t rows = 9;
      const auto x = random_vector(rows * m, m);
      const auto s = positive_vector(rows, m + 1);
      std::vector<double> ya(rows * m), yb(rows * m);
      scalar.mul_rows_broadcast(ya.data(), x.data(), s.data(), rows, m);
      table->mul_rows_broadcast(yb.data(), x.data(), s.data(), rows, m);
      expect_bitwise(ya, yb, "mul_rows_broadcast");
      auto za = x, zb = x;
      scalar.mul_rows_broadcast_inplace(za.data(), s.data(), rows, m);
      table->mul_rows_broadcast_inplace(zb.data(), s.data(), rows, m);
      expect_bitwise(za, zb, "mul_rows_broadcast_inplace");
    }
  }
}

TEST(SvMicrokernel, FusedRadixKernelsBitwiseEqualPairComposition) {
  // Radix-4 and radix-8 fusions must equal the composition of plain pair
  // levels BIT FOR BIT: fusion only reorders independent pairs, and each
  // element still sees the identical m00*t1 + m01*t2 two-rounding sequence.
  const SvKernels& scalar = scalar_sv_kernels();
  const Factor2 f0 = Factor2::asymmetric(0.013, 0.27);
  const Factor2 f1 = Factor2::asymmetric(0.041, 0.18);
  const Factor2 f2 = Factor2::asymmetric(0.009, 0.33);
  for (const SvKernels* table : available_tables()) {
    SCOPED_TRACE(table->name);
    for (std::size_t cnt : {1ul, 3ul, 4ul, 5ul, 8ul, 13ul, 16ul, 64ul}) {
      // Radix-4: f0 on (r0,r1),(r2,r3) then f1 on (r0,r2),(r1,r3).
      auto quad_ref = random_vector(4 * cnt, cnt + 3);
      auto quad_act = quad_ref;
      {
        double* q = quad_ref.data();
        scalar.butterfly_span(q, q + cnt, cnt, f0);
        scalar.butterfly_span(q + 2 * cnt, q + 3 * cnt, cnt, f0);
        scalar.butterfly_span(q, q + 2 * cnt, cnt, f1);
        scalar.butterfly_span(q + cnt, q + 3 * cnt, cnt, f1);
      }
      {
        double* q = quad_act.data();
        table->butterfly_quad_span(q, q + cnt, q + 2 * cnt, q + 3 * cnt, cnt,
                                   f0, f1);
      }
      expect_bitwise(quad_ref, quad_act, "butterfly_quad_span");

      // Radix-8: three pairing rounds on eight spans spaced `cnt` apart.
      auto oct_ref = random_vector(8 * cnt, cnt + 4);
      auto oct_act = oct_ref;
      {
        double* q = oct_ref.data();
        for (std::size_t k = 0; k < 8; k += 2) {
          scalar.butterfly_span(q + k * cnt, q + (k + 1) * cnt, cnt, f0);
        }
        for (std::size_t k : {0ul, 1ul, 4ul, 5ul}) {
          scalar.butterfly_span(q + k * cnt, q + (k + 2) * cnt, cnt, f1);
        }
        for (std::size_t k = 0; k < 4; ++k) {
          scalar.butterfly_span(q + k * cnt, q + (k + 4) * cnt, cnt, f2);
        }
      }
      table->butterfly_oct_span(oct_act.data(), cnt, cnt, f0, f1, f2);
      expect_bitwise(oct_ref, oct_act, "butterfly_oct_span");
    }
  }
}

TEST(SvMicrokernel, BlockedApplyBitIdenticalAcrossTiersBackendsAndNu) {
  // The whole banded apply — every tier, every fused radix, every backend —
  // against the forced-autovec path.  This is the acceptance criterion of
  // the microkernel layer: identical banding, identical per-element math.
  const SvKernel tiers[] = {SvKernel::automatic, SvKernel::avx2,
                            SvKernel::avx512};
  for (unsigned nu : {4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 13u, 14u, 16u, 22u}) {
    const std::size_t n = std::size_t{1} << nu;
    const auto factors = asymmetric_factors(nu, 1000 + nu);
    const auto x = random_vector(n, 2000 + nu);

    BlockedPlan reference_plan;
    reference_plan.sv_kernel = SvKernel::autovec;
    std::vector<double> reference = x;
    apply_blocked_butterfly(reference, factors, parallel::serial_engine(),
                            reference_plan);

    for (const auto& [name, engine] : testing::all_engines()) {
      for (SvKernel tier : tiers) {
        for (unsigned radix : {2u, 4u, 8u}) {
          BlockedPlan plan;
          plan.sv_kernel = tier;
          plan.sv_max_radix = radix;
          std::vector<double> v = x;
          apply_blocked_butterfly(v, factors, *engine, plan);
          SCOPED_TRACE(::testing::Message()
                       << "nu=" << nu << " tier=" << to_string(tier)
                       << " radix=" << radix << " backend=" << name);
          expect_bitwise(reference, v, "apply_blocked_butterfly");
        }
      }
    }
  }
}

TEST(SvMicrokernel, FusedScalingsBitIdenticalAcrossTiers) {
  // The fused pre/post diagonal scalings ride inside the first/last band on
  // both the autovec and the microkernel paths; a plain element-wise product
  // is bitwise the same in scalar and SIMD, so the whole fused product must
  // be too — out-of-place and exactly-aliased in-place.
  const unsigned nu = 12;
  const std::size_t n = std::size_t{1} << nu;
  const auto factors = asymmetric_factors(nu, 77);
  const auto x = random_vector(n, 78);
  const auto pre = positive_vector(n, 79);
  const auto post = positive_vector(n, 80);

  BlockedPlan reference_plan;
  reference_plan.sv_kernel = SvKernel::autovec;
  std::vector<double> reference(n);
  apply_blocked_butterfly_fused(x, reference, factors, pre, post,
                                parallel::serial_engine(), reference_plan);

  for (SvKernel tier : {SvKernel::automatic, SvKernel::avx2, SvKernel::avx512}) {
    BlockedPlan plan;
    plan.sv_kernel = tier;
    SCOPED_TRACE(to_string(tier));
    std::vector<double> y(n);
    apply_blocked_butterfly_fused(x, y, factors, pre, post,
                                  parallel::serial_engine(), plan);
    expect_bitwise(reference, y, "fused out-of-place");

    std::vector<double> in_place = x;
    apply_blocked_butterfly_fused(in_place, in_place, factors, pre, post,
                                  parallel::serial_engine(), plan);
    expect_bitwise(reference, in_place, "fused in-place");
  }
}

TEST(SvMicrokernel, PlanVariationsStayBitIdentical) {
  // Tile/chunk choices change the band partition and the L1 sub-tile
  // staging changes the sweep order inside a band; neither may change bits.
  const unsigned nu = 14;
  const std::size_t n = std::size_t{1} << nu;
  const auto factors = asymmetric_factors(nu, 55);
  const auto x = random_vector(n, 56);

  BlockedPlan reference_plan;
  reference_plan.sv_kernel = SvKernel::autovec;
  std::vector<double> reference = x;
  apply_blocked_butterfly(reference, factors, parallel::serial_engine(),
                          reference_plan);

  for (const BlockedPlan base : {BlockedPlan{4, 2}, BlockedPlan{6, 3},
                                 BlockedPlan{10, 6}, BlockedPlan{14, 6},
                                 BlockedPlan{16, 8}}) {
    for (SvKernel tier : {SvKernel::automatic, SvKernel::autovec}) {
      BlockedPlan plan = base;
      plan.sv_kernel = tier;
      std::vector<double> v = x;
      apply_blocked_butterfly(v, factors, parallel::serial_engine(), plan);
      SCOPED_TRACE(::testing::Message() << "tile=" << base.tile_log2
                                        << " chunk=" << base.chunk_log2
                                        << " tier=" << to_string(tier));
      expect_bitwise(reference, v, "plan variation");
    }
  }
}

TEST(SvMicrokernel, BandBoundsMatchVectorBoundaries) {
  // The allocation-free BandBounds must agree with the std::vector form for
  // every nu and plan the apply paths can see.
  for (const BlockedPlan plan : {BlockedPlan{14, 6}, BlockedPlan{4, 2},
                                 BlockedPlan{20, 6}, BlockedPlan{8, 3}}) {
    for (unsigned nu = 0; nu <= 30; ++nu) {
      const auto expected = blocked_band_boundaries(nu, plan);
      const BandBounds bounds = blocked_band_bounds(nu, plan);
      ASSERT_EQ(expected.size(), bounds.count) << "nu " << nu;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i], bounds[i]) << "nu " << nu << " entry " << i;
      }
    }
  }
}

TEST(SvMicrokernel, ResolutionAndNamesAreConsistent) {
  // autovec always resolves to the plain loops.
  EXPECT_EQ(resolve_sv_kernels(SvKernel::autovec), nullptr);
  EXPECT_EQ(std::string_view(resolved_sv_kernel_name(SvKernel::autovec)),
            "autovec");

  // automatic resolves to the widest available table, or autovec.
  const SvKernels* best = best_sv_kernels();
  EXPECT_EQ(resolve_sv_kernels(SvKernel::automatic), best);
  if (const SvKernels* a512 = avx512_sv_kernels()) {
    EXPECT_EQ(best, a512);
    EXPECT_EQ(std::string_view(best->name), "avx512");
  } else if (const SvKernels* a2 = avx2_sv_kernels()) {
    EXPECT_EQ(best, a2);
    EXPECT_EQ(std::string_view(best->name), "avx2");
  } else {
    EXPECT_EQ(best, nullptr);
  }

  // An explicitly requested tier resolves to its table when available and
  // degrades to autovec (null) when not — plans stay portable across hosts.
  for (SvKernel tier : {SvKernel::avx2, SvKernel::avx512}) {
    const SvKernels* resolved = resolve_sv_kernels(tier);
    const char* name = resolved_sv_kernel_name(tier);
    if (resolved == nullptr) {
      EXPECT_EQ(std::string_view(name), "autovec") << to_string(tier);
    } else {
      EXPECT_EQ(std::string_view(name), std::string_view(resolved->name));
    }
  }

  EXPECT_EQ(std::string_view(to_string(SvKernel::automatic)), "automatic");
  EXPECT_EQ(std::string_view(to_string(SvKernel::autovec)), "autovec");
  EXPECT_EQ(std::string_view(to_string(SvKernel::avx2)), "avx2");
  EXPECT_EQ(std::string_view(to_string(SvKernel::avx512)), "avx512");
  EXPECT_EQ(std::string_view(scalar_sv_kernels().name), "scalar");
}

}  // namespace
}  // namespace qs::transforms
