#include "fs/striping.hpp"

#include <algorithm>
#include <stdexcept>

namespace spider::fs {

OstAllocator::OstAllocator(std::span<Ost* const> osts, AllocatorMode mode)
    : osts_(osts.begin(), osts.end()), mode_(mode) {
  if (osts_.empty()) throw std::invalid_argument("OstAllocator: no OSTs");
  for (std::size_t i = 0; i < osts_.size(); ++i) {
    index_of_id_.emplace(osts_[i]->id(), i);
  }
}

bool OstAllocator::qos_eligible(const Ost& o, double mean_fullness) const {
  // Lustre QOS: skip OSTs whose fullness exceeds the mean by a margin.
  return o.fullness() <= mean_fullness + 0.05;
}

std::vector<std::uint32_t> OstAllocator::allocate(std::uint32_t count,
                                                  Bytes file_size, Rng& rng) {
  count = std::min<std::uint32_t>(count, static_cast<std::uint32_t>(osts_.size()));
  if (count == 0) return {};
  const Bytes per_ost = (file_size + count - 1) / count;

  double mean_fullness = 0.0;
  if (mode_ == AllocatorMode::kQosWeighted) {
    for (const Ost* o : osts_) mean_fullness += o->fullness();
    mean_fullness /= static_cast<double>(osts_.size());
  }

  std::vector<std::uint32_t> chosen;
  chosen.reserve(count);
  std::vector<std::size_t> chosen_idx;
  // Start at the round-robin cursor (randomized slightly, as Lustre does,
  // to avoid lock-step allocation across clients).
  std::size_t start = rr_cursor_;
  if (mode_ == AllocatorMode::kQosWeighted && rng.chance(0.2)) {
    start = rng.uniform_index(osts_.size());
  }
  for (std::size_t probe = 0; probe < osts_.size() && chosen.size() < count; ++probe) {
    const std::size_t i = (start + probe) % osts_.size();
    Ost& o = *osts_[i];
    if (mode_ == AllocatorMode::kQosWeighted && !qos_eligible(o, mean_fullness)) {
      continue;
    }
    if (o.allocate(per_ost)) {
      chosen.push_back(o.id());
      chosen_idx.push_back(i);
    }
  }
  // Second pass without QOS filtering if we came up short.
  for (std::size_t probe = 0; probe < osts_.size() && chosen.size() < count; ++probe) {
    const std::size_t i = (start + probe) % osts_.size();
    if (std::find(chosen_idx.begin(), chosen_idx.end(), i) != chosen_idx.end()) {
      continue;
    }
    if (osts_[i]->allocate(per_ost)) {
      chosen.push_back(osts_[i]->id());
      chosen_idx.push_back(i);
    }
  }
  if (chosen.size() < count) {
    // Roll back a failed allocation.
    for (std::size_t i : chosen_idx) osts_[i]->release(per_ost);
    return {};
  }
  rr_cursor_ = (start + count) % osts_.size();
  return chosen;
}

void OstAllocator::release(std::span<const std::uint32_t> ost_ids, Bytes file_size) {
  if (ost_ids.empty()) return;
  const Bytes per_ost = (file_size + ost_ids.size() - 1) / ost_ids.size();
  for (std::uint32_t id : ost_ids) {
    auto it = index_of_id_.find(id);
    if (it != index_of_id_.end()) osts_[it->second]->release(per_ost);
  }
}

bool OstAllocator::resize(std::span<const std::uint32_t> ost_ids,
                          Bytes old_size, Bytes new_size) {
  if (ost_ids.empty()) return false;
  const Bytes per_old = (old_size + ost_ids.size() - 1) / ost_ids.size();
  const Bytes per_new = (new_size + ost_ids.size() - 1) / ost_ids.size();
  if (per_new == per_old) return true;
  std::vector<Ost*> touched;
  touched.reserve(ost_ids.size());
  for (std::uint32_t id : ost_ids) {
    auto it = index_of_id_.find(id);
    if (it != index_of_id_.end()) touched.push_back(osts_[it->second]);
  }
  if (per_new < per_old) {
    for (Ost* o : touched) o->shrink(per_old - per_new);
    return true;
  }
  std::size_t done = 0;
  for (; done < touched.size(); ++done) {
    if (!touched[done]->grow(per_new - per_old)) break;
  }
  if (done == touched.size()) return true;
  // Grow did not fit: roll the partial reservation back.
  for (std::size_t i = 0; i < done; ++i) touched[i]->shrink(per_new - per_old);
  return false;
}

}  // namespace spider::fs
