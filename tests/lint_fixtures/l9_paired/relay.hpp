// Fixture pair for the paired-header path into the per-file rules: the
// SPIDER_SHARD_OWNED and SPIDER_GUARDED_BY annotations live only in this
// header, and every breach lives in relay.cpp. L9 and L6 must flag
// relay.cpp the same way whether this header is an input (the directory
// is linted) or context read from disk (relay.cpp is linted alone). No
// finding belongs to this file.
#pragma once

#include <mutex>
#include <vector>

#include "common/annotations.hpp"

namespace fixture {

class Relay {
 public:
  void forward();
  void flush();
  void count();

 private:
  void drain();

  struct FakeSim {
    template <typename Fn>
    void schedule_at(long when, Fn fn) {
      (void)when;
      fn();
    }
  };
  FakeSim sim_;
  std::mutex mu_;
  std::vector<int> outbox_ SPIDER_SHARD_OWNED(barrier);
  long sent_ SPIDER_GUARDED_BY(mu_) = 0;
};

}  // namespace fixture
