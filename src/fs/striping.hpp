// File striping policy and OST allocation.
//
// Lustre stripes a file over `stripe_count` OSTs in `stripe_size` units.
// The paper's user best practices (Section VII) hinge on striping choices:
// small files and directories of small files should use stripe count 1
// (every stat of a striped file touches every OST holding data), while
// large checkpoint files stripe wide with stripe-aligned 1 MB I/O. The
// allocator implements Lustre's round-robin with a fullness-weighted QOS
// mode that avoids imbalanced OSTs.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "fs/ost.hpp"

namespace spider::fs {

struct StripePolicy {
  std::uint32_t stripe_count = 4;
  Bytes stripe_size = 1_MiB;
};

enum class AllocatorMode {
  /// Plain round-robin (Lustre default when OSTs are balanced).
  kRoundRobin,
  /// Weighted by free space: skips OSTs much fuller than the average
  /// (Lustre QOS allocator behaviour).
  kQosWeighted,
};

class OstAllocator {
 public:
  OstAllocator(std::span<Ost* const> osts, AllocatorMode mode);

  /// Choose `count` distinct OSTs for a new file and reserve `file_size`
  /// across them (evenly). Returns chosen OST ids; empty when space cannot
  /// be found.
  std::vector<std::uint32_t> allocate(std::uint32_t count, Bytes file_size,
                                      Rng& rng);

  /// Release a file's reservation from its stripe OSTs.
  void release(std::span<const std::uint32_t> ost_ids, Bytes file_size);

  /// Adjust a file's reservation on its existing stripe OSTs from
  /// `old_size` to `new_size` (evenly, like allocate/release). Shrinks
  /// always succeed; a grow that does not fit rolls back and returns false.
  /// Only bytes move: the file keeps one object per stripe OST.
  bool resize(std::span<const std::uint32_t> ost_ids, Bytes old_size,
              Bytes new_size);

  AllocatorMode mode() const { return mode_; }
  std::size_t num_osts() const { return osts_.size(); }
  Ost& ost(std::size_t i) { return *osts_[i]; }
  const Ost& ost(std::size_t i) const { return *osts_[i]; }

 private:
  bool qos_eligible(const Ost& o, double mean_fullness) const;

  std::vector<Ost*> osts_;
  std::map<std::uint32_t, std::size_t> index_of_id_;
  AllocatorMode mode_;
  std::size_t rr_cursor_ = 0;
};

}  // namespace spider::fs
