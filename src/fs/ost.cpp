#include "fs/ost.hpp"

#include <algorithm>
#include <stdexcept>

namespace spider::fs {

Ost::Ost(std::uint32_t id, block::Raid6Group* group, const OstParams& params)
    : id_(id), group_(group), params_(params) {
  if (group_ == nullptr) throw std::invalid_argument("Ost: null RAID group");
}

double Ost::fullness() const {
  const Bytes cap = capacity();
  return cap == 0 ? 1.0 : static_cast<double>(used_) / static_cast<double>(cap);
}

bool Ost::allocate(Bytes size) {
  if (!grow(size)) return false;
  ++objects_;
  return true;
}

void Ost::release(Bytes size) {
  shrink(size);
  if (objects_ > 0) --objects_;
}

bool Ost::grow(Bytes delta) {
  if (used_ + delta > capacity()) return false;
  used_ += delta;
  return true;
}

void Ost::shrink(Bytes delta) { used_ -= std::min(used_, delta); }

double Ost::fullness_factor() const {
  const double f = fullness();
  const double k1 = params_.fullness_knee1;
  const double k2 = params_.fullness_knee2;
  if (f <= k1) return 1.0;
  if (f <= k2) {
    // Gentle decline from 1.0 at knee1 to factor_at_knee2 at knee2.
    const double t = (f - k1) / (k2 - k1);
    return 1.0 + t * (params_.factor_at_knee2 - 1.0);
  }
  // Severe decline beyond knee2, approaching the floor at 100% full.
  const double t = std::min(1.0, (f - k2) / (1.0 - k2));
  return params_.factor_at_knee2 + t * (params_.factor_floor - params_.factor_at_knee2);
}

Bandwidth Ost::bandwidth(block::IoMode mode, block::IoDir dir,
                         Bytes request_size) const {
  double eff = dir == block::IoDir::kRead ? params_.obdfilter_read_eff
                                          : params_.obdfilter_write_eff;
  if (dir == block::IoDir::kWrite) eff *= params_.journal.write_efficiency();
  return group_->bandwidth(mode, dir, request_size) * eff * fullness_factor();
}

}  // namespace spider::fs
