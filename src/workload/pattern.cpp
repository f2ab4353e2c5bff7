#include "workload/pattern.hpp"

#include <cmath>
#include <stdexcept>

namespace spider::workload {

namespace {
const WorkloadMixParams& checked(const WorkloadMixParams& mix) {
  if (mix.small_fraction < 0.0 || mix.small_fraction > 1.0) {
    throw std::invalid_argument("small_fraction must be in [0,1]");
  }
  if (mix.small_lo >= mix.small_hi || mix.large_max_mb == 0) {
    throw std::invalid_argument("bad size-mode bounds");
  }
  return mix;
}
}  // namespace

RequestSizeModel::RequestSizeModel(const WorkloadMixParams& mix)
    : mix_(checked(mix)), large_mb_(mix_.large_max_mb, mix_.large_zipf_s) {}

Bytes RequestSizeModel::sample(Rng& rng) const {
  if (rng.chance(mix_.small_fraction)) {
    // Small mode: log-uniform between the bounds (heavier near the bottom,
    // as the trace study showed for sub-16 KB metadata-ish requests).
    const double lo = std::log2(static_cast<double>(mix_.small_lo));
    const double hi = std::log2(static_cast<double>(mix_.small_hi));
    return static_cast<Bytes>(std::exp2(rng.uniform(lo, hi)));
  }
  // Large mode: exact multiples of 1 MB, Zipf-weighted toward 1 MB.
  const std::size_t k = large_mb_.sample(rng) + 1;
  return static_cast<Bytes>(k) * 1_MB;
}

block::IoDir sample_dir(const WorkloadMixParams& mix, Rng& rng) {
  return rng.chance(mix.write_fraction) ? block::IoDir::kWrite
                                        : block::IoDir::kRead;
}

}  // namespace spider::workload
