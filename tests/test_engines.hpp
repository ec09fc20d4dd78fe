// The engines the cross-backend tests run, each under the name its tests
// are registered with: the serial engine, a four-lane ThreadedTestEngine (the
// threaded engine every build and ThreadSanitizer can see) and
// parallel_engine() (OpenMP, or the serial engine again in an OpenMP-off
// build, still named "openmp").  OpenMP runs last: TSan cannot see libgomp's
// barriers, so a stack slot an OpenMP worker read and the test engine's
// frame later reuses reads as a race in the test engine.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <string>

#include "parallel/engine.hpp"
#include "testing/threaded_test_engine.hpp"

namespace qs::testing {

struct NamedEngine {
  const char* name;
  const parallel::Engine* engine;
};

/// gtest prints a parameter into the registered test name: print the name,
/// not the pointer bytes, which change from run to run.
inline void PrintTo(const NamedEngine& e, std::ostream* os) { *os << e.name; }

/// Parameter-name generator for INSTANTIATE_TEST_SUITE_P over NamedEngine.
inline std::string engine_name(const ::testing::TestParamInfo<NamedEngine>& info) {
  return info.param.name;
}

inline const ThreadedTestEngine& threaded_test_engine() {
  static const ThreadedTestEngine engine(4);
  return engine;
}

inline std::array<NamedEngine, 3> all_engines() {
  return {{{"serial", &parallel::serial_engine()},
           {"threaded", &threaded_test_engine()},
           {"openmp", &parallel::parallel_engine()}}};
}

}  // namespace qs::testing
