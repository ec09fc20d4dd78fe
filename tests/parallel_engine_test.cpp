// Unit tests for the kernel-dispatch execution engine (GPU substitute).
#include "parallel/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/mutation_model.hpp"
#include "distributed/reduction.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "test_engines.hpp"

namespace qs::parallel {
namespace {

class EngineTest : public ::testing::TestWithParam<testing::NamedEngine> {
 protected:
  const Engine* engine_ = GetParam().engine;
};

TEST_P(EngineTest, DispatchCoversEveryIndexExactlyOnce) {
  const std::size_t n = 100001;
  std::vector<std::atomic<int>> hits(n);
  engine_->dispatch(n, [&hits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(EngineTest, DispatchOfZeroIsNoOp) {
  bool called = false;
  engine_->dispatch(0, [&called](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_P(EngineTest, DispatchHasBarrierSemantics) {
  // All writes from the kernel must be visible after dispatch returns.
  const std::size_t n = 4096;
  std::vector<double> out(n, 0.0);
  engine_->dispatch(n, [&out](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = static_cast<double>(i);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], static_cast<double>(i));
}

TEST_P(EngineTest, ReductionsMatchSerialReference) {
  const std::size_t n = 12345;
  std::vector<double> a(n), b(n);
  Xoshiro256 rng(42);
  double sum = 0.0, abs_sum = 0.0, sq = 0.0, dp = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
    sum += a[i];
    abs_sum += std::abs(a[i]);
    sq += a[i] * a[i];
    dp += a[i] * b[i];
  }
  EXPECT_NEAR(engine_->reduce_sum(a), sum, 1e-9);
  EXPECT_NEAR(engine_->reduce_abs_sum(a), abs_sum, 1e-9);
  EXPECT_NEAR(engine_->reduce_sum_squares(a), sq, 1e-9);
  EXPECT_NEAR(engine_->reduce_dot(a, b), dp, 1e-9);
}

TEST_P(EngineTest, DispatchPropagatesKernelExceptions) {
  // An exception thrown inside a kernel lane must surface on the dispatching
  // thread (not terminate the process), and every lane must still pass the
  // barrier — verified by the engine staying usable afterwards.
  const std::size_t n = 100000;
  EXPECT_THROW(engine_->dispatch(n,
                                 [](std::size_t begin, std::size_t) {
                                   if (begin == 0) {
                                     throw std::runtime_error("kernel fault");
                                   }
                                 }),
               std::runtime_error);
  // The engine survives and the next dispatch is complete and correct.
  std::vector<double> out(n, 0.0);
  engine_->dispatch(n, [&out](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = 1.0;
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], 1.0);
}

TEST_P(EngineTest, DispatchPropagatesWhenEveryLaneThrows) {
  // First-wins capture: with all lanes throwing, exactly one exception
  // reaches the caller and the rest are swallowed, not std::terminate'd.
  EXPECT_THROW(engine_->dispatch(10000,
                                 [](std::size_t, std::size_t) {
                                   throw std::invalid_argument("all lanes");
                                 }),
               std::invalid_argument);
  EXPECT_NEAR(engine_->reduce_sum(std::vector<double>{1.0, 2.0}), 3.0, 1e-15);
}

TEST_P(EngineTest, ReducePartialsPropagatesKernelExceptions) {
  EXPECT_THROW(engine_->reduce_partials(100000,
                                        [](std::size_t begin, std::size_t) -> double {
                                          if (begin == 0) {
                                            throw std::runtime_error("reduce fault");
                                          }
                                          return 0.0;
                                        }),
               std::runtime_error);
  // Reductions still work afterwards.
  const double total = engine_->reduce_partials(
      1000, [](std::size_t begin, std::size_t end) {
        return static_cast<double>(end - begin);
      });
  EXPECT_EQ(total, 1000.0);
}

/// Two vectors and the paired kernel over them, {Σ a_i b_i, Σ |a_i − b_i/2|},
/// plus each component as its own scalar kernel.
struct PairCase {
  std::vector<double> a, b;

  explicit PairCase(std::size_t n) : a(n), b(n) {
    Xoshiro256 rng(n + 7);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform(-1.0, 1.0);
      b[i] = rng.uniform(-1.0, 1.0);
    }
  }
  double first(std::size_t i) const { return a[i] * b[i]; }
  double second(std::size_t i) const { return std::abs(a[i] - 0.5 * b[i]); }
  PairSum pair(std::size_t begin, std::size_t end) const {
    PairSum acc{0.0, 0.0};
    for (std::size_t i = begin; i < end; ++i) {
      acc[0] += first(i);
      acc[1] += second(i);
    }
    return acc;
  }
  double scalar(std::size_t begin, std::size_t end, bool second_component) const {
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      acc += second_component ? second(i) : first(i);
    }
    return acc;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The reduce_pair sizes: empty, one, a few, one short of a block per lane,
/// and a power of two plus a ragged tail.
std::vector<std::size_t> pair_sizes(const Engine& engine) {
  return {0, 1, 3, engine.concurrency() - 1, (std::size_t{1} << 10) + 5,
          (std::size_t{1} << 16) + 5};
}

// reduce_pair on the backends ThreadSanitizer can judge.  libgomp's
// barriers are invisible to it (every OpenMP case of EngineTest reports
// under -L tsan), so the OpenMP checks live in solvers_power_loop_test.cpp
// and fault_injection_test.cpp, outside the TSan suite.
class PairReductionTest : public ::testing::TestWithParam<testing::NamedEngine> {
 protected:
  const Engine* engine_ = GetParam().engine;
};

TEST_P(PairReductionTest, ReducePairIsRepeatableAndSumsBothComponents) {
  for (const std::size_t n : pair_sizes(*engine_)) {
    const PairCase data(n);
    const auto pair = [&data](std::size_t begin, std::size_t end) {
      return data.pair(begin, end);
    };
    const PairSum first = engine_->reduce_pair(n, pair);
    // The combine order is fixed on every backend: the same bits each call.
    for (int rep = 0; rep < 5; ++rep) {
      const PairSum again = engine_->reduce_pair(n, pair);
      ASSERT_EQ(bits(again[0]), bits(first[0])) << "n=" << n << " rep " << rep;
      ASSERT_EQ(bits(again[1]), bits(first[1])) << "n=" << n << " rep " << rep;
    }
    for (const bool second : {false, true}) {
      const double scalar = engine_->reduce_partials(
          n, [&data, second](std::size_t begin, std::size_t end) {
            return data.scalar(begin, end, second);
          });
      if (engine_->concurrency() == 1) {
        // One lane: exactly reduce_partials of the matching scalar kernel.
        EXPECT_EQ(bits(first[second ? 1 : 0]), bits(scalar)) << "n=" << n;
      } else {
        EXPECT_NEAR(first[second ? 1 : 0], scalar, 1e-12 * (1.0 + std::abs(scalar)))
            << "n=" << n;
      }
    }
  }
}

TEST_P(PairReductionTest, ReducePairPropagatesKernelExceptions) {
  EXPECT_THROW(engine_->reduce_pair(100000,
                                    [](std::size_t begin, std::size_t) -> PairSum {
                                      if (begin == 0) {
                                        throw std::runtime_error("pair fault");
                                      }
                                      return {0.0, 0.0};
                                    }),
               std::runtime_error);
  // Paired reductions still work afterwards.
  const PairSum total = engine_->reduce_pair(
      1000, [](std::size_t begin, std::size_t end) {
        return PairSum{static_cast<double>(end - begin), 1.0};
      });
  EXPECT_EQ(total[0], 1000.0);
  EXPECT_GE(total[1], 1.0);
  EXPECT_LE(total[1], static_cast<double>(Engine::kMaxPairBlocks));
}

INSTANTIATE_TEST_SUITE_P(SerialAndThreaded, PairReductionTest,
                         ::testing::Values(testing::NamedEngine{"serial",
                                                                &serial_engine()},
                                           testing::NamedEngine{
                                               "threaded",
                                               &testing::threaded_test_engine()}),
                         testing::engine_name);

TEST(TreeEngine, ReducePairMatchesReducePartialsPerComponent) {
  const Engine& tree = distributed::tree_engine();
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{7}, (std::size_t{1} << 10) + 5}) {
    const PairCase data(n);
    const PairSum pair = tree.reduce_pair(n, [&data](std::size_t begin, std::size_t end) {
      return data.pair(begin, end);
    });
    for (const bool second : {false, true}) {
      const double scalar = tree.reduce_partials(
          n, [&data, second](std::size_t begin, std::size_t end) {
            return data.scalar(begin, end, second);
          });
      EXPECT_EQ(bits(pair[second ? 1 : 0]), bits(scalar)) << "n=" << n;
    }
  }
}

TEST_P(EngineTest, ExceptionTypeAndMessageSurviveThePropagation) {
  try {
    engine_->dispatch(1000, [](std::size_t, std::size_t) {
      throw std::out_of_range("specific message");
    });
    FAIL() << "dispatch must rethrow";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

TEST_P(EngineTest, ConcurrencyIsAtLeastOne) {
  EXPECT_GE(engine_->concurrency(), 1u);
}

TEST_P(EngineTest, HasNonEmptyName) {
  EXPECT_FALSE(engine_->name().empty());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EngineTest,
                         ::testing::ValuesIn(testing::all_engines()),
                         testing::engine_name);

TEST(ThreadedTestEngine, ExplicitLaneCountAndFmmpAgreement) {
  // Several genuine std::threads must reproduce the serial butterfly bit for
  // bit (the kernel bodies are identical arithmetic).
  const testing::ThreadedTestEngine threaded(4);
  EXPECT_EQ(threaded.concurrency(), 4u);
  EXPECT_EQ(threaded.name(), "threaded-test");

  const auto model = qs::core::MutationModel::uniform(10, 0.03);
  std::vector<double> serial(1024), threaded_out(1024);
  qs::Xoshiro256 rng(5);
  for (std::size_t i = 0; i < 1024; ++i) serial[i] = threaded_out[i] = rng.uniform();
  model.apply(serial);
  model.apply(threaded_out, threaded);
  for (std::size_t i = 0; i < 1024; ++i) ASSERT_DOUBLE_EQ(serial[i], threaded_out[i]);
}

TEST(ThreadedTestEngine, ManyLanesOnFewItems) {
  // More lanes than work: chunking must stay correct.
  const testing::ThreadedTestEngine threaded(8);
  EXPECT_EQ(threaded.concurrency(), 8u);
  std::vector<double> out(3, 0.0);
  threaded.dispatch(3, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] += 1.0;
  });
  for (double v : out) EXPECT_EQ(v, 1.0);
  // Repeated dispatches each start and join their own threads.
  for (int round = 0; round < 50; ++round) {
    threaded.dispatch(3, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] += 1.0;
    });
  }
  for (double v : out) EXPECT_EQ(v, 51.0);
}

TEST(ThreadedTestEngine, RefusesLaneCountsOutsideOneToEight) {
  EXPECT_THROW(testing::ThreadedTestEngine(0), precondition_error);
  EXPECT_THROW(testing::ThreadedTestEngine(testing::ThreadedTestEngine::kMaxLanes + 1),
               precondition_error);
}

TEST(EngineSingletons, Available) {
  EXPECT_EQ(serial_engine().name(), "serial");
  EXPECT_GE(parallel_engine().concurrency(), 1u);
}

TEST(EngineSingletons, SerialDispatchRunsOneChunk) {
  int chunks = 0;
  serial_engine().dispatch(1000, [&chunks](std::size_t begin, std::size_t end) {
    ++chunks;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1000u);
  });
  EXPECT_EQ(chunks, 1);
}

}  // namespace
}  // namespace qs::parallel
