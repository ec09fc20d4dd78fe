#include "parallel/engine.hpp"

#include <algorithm>

#include "parallel/serial_backend.hpp"

#if defined(QS_HAVE_OPENMP)
#include "parallel/openmp_backend.hpp"
#endif

namespace qs::parallel {

PairSum Engine::reduce_pair(std::size_t n, const PairKernel& kernel) const {
  if (n == 0) return {0.0, 0.0};
  const std::size_t lanes =
      std::clamp<std::size_t>(concurrency(), 1, std::min(n, kMaxPairBlocks));
  const std::size_t chunk = (n + lanes - 1) / lanes;
  const std::size_t blocks = (n + chunk - 1) / chunk;  // none of them empty
  // One cache line per block partial: the lanes' stores do not share lines.
  struct alignas(64) Partial {
    PairSum sum;
  };
  std::array<Partial, kMaxPairBlocks> partial;
  dispatch(blocks, [&](std::size_t first, std::size_t last) {
    for (std::size_t b = first; b < last; ++b) {
      partial[b].sum = kernel(b * chunk, std::min(b * chunk + chunk, n));
    }
  });
  PairSum total = partial[0].sum;
  for (std::size_t b = 1; b < blocks; ++b) {
    total[0] += partial[b].sum[0];
    total[1] += partial[b].sum[1];
  }
  return total;
}

const Engine& serial_engine() {
  static const SerialBackend instance;
  return instance;
}

const Engine& parallel_engine() {
#if defined(QS_HAVE_OPENMP)
  static const OpenMPBackend instance;
  return instance;
#else
  return serial_engine();
#endif
}

}  // namespace qs::parallel
