#include "analysis/error_classes.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "support/binomial.hpp"
#include "support/contracts.hpp"

namespace qs::analysis {

std::vector<double> class_concentrations(unsigned nu, std::span<const double> x,
                                         seq_t reference) {
  require(x.size() == sequence_count(nu), "class_concentrations: size must be 2^nu");
  require(reference < x.size(), "class_concentrations: reference out of range");
  std::vector<double> out(nu + 1, 0.0);
  // Blocks of 256 indices share their high bits, so d_H(i, reference) is a
  // per-block popcount of the high bits plus a table lookup on the low
  // byte.  Each bin still adds its x_i in index order: bit-identical to the
  // per-element popcount loop.
  const std::size_t block = std::min<std::size_t>(x.size(), 256);
  std::array<unsigned char, 256> low{};
  for (std::size_t j = 0; j < block; ++j) {
    low[j] = static_cast<unsigned char>(hamming_distance(j, reference & 0xFF));
  }
  for (seq_t base = 0; base < x.size(); base += block) {
    double* bin = out.data() + hamming_weight((base ^ reference) >> 8);
    const double* xb = x.data() + base;
    for (std::size_t j = 0; j < block; ++j) bin[low[j]] += xb[j];
  }
  return out;
}

std::vector<double> class_cardinalities(unsigned nu) {
  BinomialRow row(nu);
  std::vector<double> out(nu + 1);
  for (unsigned k = 0; k <= nu; ++k) out[k] = row.value(k);
  return out;
}

std::vector<double> uniform_class_concentrations(unsigned nu) {
  std::vector<double> out = class_cardinalities(nu);
  const double n = std::ldexp(1.0, static_cast<int>(nu));  // 2^nu
  for (double& v : out) v /= n;
  return out;
}

std::vector<seq_t> class_members(unsigned nu, unsigned k, seq_t reference) {
  require(k <= nu, "class_members: class index k must satisfy k <= nu");
  require(nu <= 30, "class_members: nu too large to materialise");
  std::vector<seq_t> out;
  FixedWeightMasks(nu, k).for_each([&](seq_t m) { out.push_back(m ^ reference); });
  std::sort(out.begin(), out.end());
  return out;
}

double population_entropy(std::span<const double> x) {
  double h = 0.0;
  for (double v : x) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

}  // namespace qs::analysis
