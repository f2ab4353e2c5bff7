#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/distributions.hpp"
#include "common/hash.hpp"
#include "common/histogram.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "common/units.hpp"

namespace spider {
namespace {

TEST(Units, BinaryAndDecimalLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
  EXPECT_EQ(1_MB, 1000000u);
  EXPECT_EQ(2_TB, 2000000000000ull);
  EXPECT_DOUBLE_EQ(to_gbps(1.0 * kTBps), 1000.0);
  EXPECT_DOUBLE_EQ(to_pb(1000_TB), 1.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexUnbiasedCoverage) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(13);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(rs.mean(), 5.0, 0.05);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(rng.exponential(4.0));
  EXPECT_NEAR(rs.mean(), 0.25, 0.01);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng a(5);
  Rng child1 = a.fork(1);
  Rng b(5);
  Rng child2 = b.fork(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1(), child2());
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Distributions, ParetoSamplesAboveScale) {
  Rng rng(23);
  Pareto p(1.5, 2.0);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(p.sample(rng), 2.0);
}

TEST(Distributions, ParetoEmpiricalMeanMatchesAnalytic) {
  Rng rng(29);
  Pareto p(2.5, 1.0);
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(p.sample(rng));
  EXPECT_NEAR(rs.mean(), p.mean(), 0.05 * p.mean());
}

TEST(Distributions, ParetoInfiniteMeanForSmallAlpha) {
  Pareto p(0.9, 1.0);
  EXPECT_TRUE(std::isinf(p.mean()));
}

TEST(Distributions, ParetoRejectsBadParams) {
  EXPECT_THROW(Pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Pareto(1.0, -1.0), std::invalid_argument);
}

TEST(Distributions, BoundedParetoStaysInBounds) {
  Rng rng(31);
  BoundedPareto p(1.2, 1.0, 100.0);
  for (int i = 0; i < 20000; ++i) {
    const double x = p.sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(Distributions, LogNormalMeanMatchesAnalytic) {
  Rng rng(37);
  LogNormal ln(0.5, 0.4);
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(ln.sample(rng));
  EXPECT_NEAR(rs.mean(), ln.mean(), 0.03 * ln.mean());
}

TEST(Distributions, ZipfPrefersLowRanks) {
  Rng rng(41);
  Zipf z(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(Distributions, DiscreteMixtureProbabilities) {
  const double weights[] = {1.0, 3.0};
  DiscreteMixture mix({weights, 2});
  EXPECT_NEAR(mix.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(mix.probability(1), 0.75, 1e-12);
  Rng rng(43);
  int first = 0;
  for (int i = 0; i < 40000; ++i) {
    if (mix.sample(rng) == 0) ++first;
  }
  EXPECT_NEAR(first / 40000.0, 0.25, 0.02);
}

TEST(Distributions, EmpiricalSamplesFromValues) {
  Rng rng(47);
  Empirical e({1.0, 2.0, 4.0});
  for (int i = 0; i < 1000; ++i) {
    const double v = e.sample(rng);
    EXPECT_TRUE(v == 1.0 || v == 2.0 || v == 4.0);
  }
}

TEST(Stats, WelfordMatchesDirectComputation) {
  Rng rng(53);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    xs.push_back(x);
    rs.add(x);
  }
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / 1000.0;
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 999.0;
  EXPECT_NEAR(rs.mean(), mean, 1e-9);
  EXPECT_NEAR(rs.variance(), var, 1e-9);
}

TEST(Stats, MergeEqualsSequential) {
  Rng rng(59);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, PercentileInterpolation) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Stats, PercentilesBatchMatchesSingle) {
  const std::vector<double> v{5.0, 1.0, 9.0, 3.0, 7.0};
  const std::vector<double> ps{10.0, 50.0, 90.0};
  const auto batch = percentiles(v, ps);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], percentile(v, ps[i]));
  }
}

TEST(Stats, SpreadAndImbalance) {
  const std::vector<double> v{90.0, 100.0, 110.0};
  EXPECT_NEAR(spread_fraction(v), 0.2, 1e-12);
  EXPECT_NEAR(imbalance_of(v), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(spread_fraction({}), 0.0);
}

TEST(Histogram, LinearBinningTracksOutOfRangeExplicitly) {
  LinearHistogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // below lo: underflow, NOT folded into bin 0
  h.add(100.0);   // at/above hi: overflow, NOT folded into bin 9
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 4u);  // totals still conserved
  // hi itself is outside the half-open range.
  h.add(10.0);
  EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, LinearFractionBetweenIgnoresOutOfRangeMass) {
  // Regression: out-of-range samples used to clamp into the edge bins and
  // masquerade as in-range mass, skewing fraction_between (and the figure
  // regeneration built on it).
  LinearHistogram h(0.0, 10.0, 10);
  h.add(2.5);
  h.add(-1000.0);
  h.add(1000.0);
  EXPECT_NEAR(h.fraction_between(0.0, 10.0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(h.fraction_between(0.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(h.fraction_between(9.0, 10.0), 0.0, 1e-12);
}

TEST(Histogram, ConstructorValidatesBeforeComputingWidth) {
  // bins == 0 must throw, not divide by zero while initializing width_.
  EXPECT_THROW(LinearHistogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(LinearHistogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(LinearHistogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Log2Histogram(5, 5), std::invalid_argument);
}

TEST(Histogram, Log2OutOfRangeAndNonPositive) {
  Log2Histogram h(4, 10);  // bins cover [16, 1024)
  h.add(20.0);             // in range: 2^4 bin
  h.add(0.0);              // no binary exponent: underflow
  h.add(-5.0);             // negative: underflow
  h.add(1.0);              // 2^0 < 2^4: underflow
  h.add(4096.0);           // 2^12 >= 2^10: overflow
  EXPECT_EQ(h.count_for_exp(4), 1u);
  EXPECT_EQ(h.count_for_exp(9), 0u);  // overflow no longer folded in
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
  // to_string reports the out-of-range mass so it can't silently vanish.
  const std::string s = h.to_string();
  EXPECT_NE(s.find("[-inf, 2^4): 3"), std::string::npos);
  EXPECT_NE(s.find("[2^10, inf): 1"), std::string::npos);
}

TEST(Histogram, Log2FractionBelowCountsUnderflow) {
  Log2Histogram h(4, 10);
  h.add(1.0);     // underflow
  h.add(20.0);    // 2^4
  h.add(100.0);   // 2^6
  h.add(4096.0);  // overflow
  // Below 64 = 2^6: the underflow sample and the 2^4 sample.
  EXPECT_NEAR(h.fraction_below(64.0), 2.0 / 4.0, 1e-12);
}

TEST(Histogram, Log2FractionBelow) {
  Log2Histogram h(0, 20);
  h.add(2.0);      // 2^1 bin
  h.add(1024.0);   // 2^10 bin
  h.add(1_MiB / 2.0);
  EXPECT_NEAR(h.fraction_below(512.0), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(Table, FormatsAndQueriesCells) {
  Table t("demo");
  t.set_columns({"name", "count", "rate"});
  t.set_precision(2, 1);
  t.add_row({std::string("x"), std::int64_t{3}, 1.25});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_DOUBLE_EQ(t.number_at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(t.number_at(0, 2), 1.25);
  EXPECT_THROW(t.number_at(0, 0), std::invalid_argument);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  EXPECT_NE(os.str().find("1.2"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("x,3,1.2"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t;
  t.set_columns({"a", "b"});
  EXPECT_THROW(t.add_row({std::int64_t{1}}), std::invalid_argument);
}

TEST(Parallel, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i]++; }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ThreadPoolRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(Parallel, InlineWhenSingleThread) {
  int sum = 0;  // no synchronization needed: must run inline
  parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 45);
}

TEST(Parallel, ThreadPoolPropagatesTaskException) {
  // Regression: an exception escaping a task used to std::terminate the
  // whole process. Now the first one per batch is rethrown from wait_idle.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&ran, i] {
      ++ran;
      if (i == 25) throw std::runtime_error("task 25 failed");
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 50);  // the failing task didn't kill any worker
}

TEST(Parallel, ThreadPoolErrorIsClearedPerBatch) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("first batch"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable and the stale error does not resurface.
  std::atomic<int> ok{0};
  for (int i = 0; i < 10; ++i) pool.submit([&ok] { ++ok; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ok.load(), 10);
}

TEST(Parallel, ParallelForPropagatesException) {
  EXPECT_THROW(
      parallel_for(1000, [](std::size_t i) {
        if (i == 123) throw std::invalid_argument("boom");
      }, 8),
      std::invalid_argument);
  // Inline path throws too.
  EXPECT_THROW(
      parallel_for(10, [](std::size_t i) {
        if (i == 3) throw std::invalid_argument("boom");
      }, 1),
      std::invalid_argument);
}

TEST(Parallel, ConsecutiveBatchesReuseTheSameWorkerThreads) {
  // Regression for the pooled fan-out: parallel_for used to spawn (and join)
  // fresh std::threads per call. Every thread a batch runs on must now be
  // either the caller or one of the shared pool's fixed workers — across
  // consecutive batches — which is only possible if batches reuse the pool.
  const std::vector<std::thread::id> workers = shared_pool().worker_ids();
  const std::thread::id caller = std::this_thread::get_id();
  auto run_batch = [] {
    std::mutex mu;
    std::set<std::thread::id> seen;
    // barrier(2) forces two distinct threads to co-run the batch: whichever
    // lane claims index 0 blocks until the other lane claims index 1, so the
    // caller alone can never finish the batch.
    std::barrier sync(2);
    parallel_for(
        2,
        [&](std::size_t) {
          sync.arrive_and_wait();
          std::lock_guard lock(mu);
          seen.insert(std::this_thread::get_id());
        },
        2);
    return seen;
  };
  const std::set<std::thread::id> batch1 = run_batch();
  const std::set<std::thread::id> batch2 = run_batch();
  EXPECT_EQ(batch1.size(), 2u);
  EXPECT_EQ(batch2.size(), 2u);
  for (const auto& seen : {batch1, batch2}) {
    for (const std::thread::id id : seen) {
      if (id == caller) continue;
      EXPECT_TRUE(std::find(workers.begin(), workers.end(), id) !=
                  workers.end())
          << "batch ran on a thread outside the shared pool";
    }
  }
}

TEST(Parallel, WaitIdleCountsFollowUpSubmissions) {
  // wait_idle is counted against submitted-vs-finished totals. A task that
  // submits follow-up work bumps the submitted count before it retires, so
  // wait_idle cannot return in the gap between "queue momentarily empty"
  // and "follow-up enqueued". (Run under sanitizers via the check.sh
  // presets; the counter handoff is the racy window being pinned.)
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  std::function<void(int)> step = [&](int remaining) {
    ++runs;
    if (remaining > 0) {
      pool.submit([&step, remaining] { step(remaining - 1); });
    }
  };
  pool.submit([&step] { step(5); });
  pool.wait_idle();
  EXPECT_EQ(runs.load(), 6);  // the chain ran to completion before return

  // And the pool remains balanced for the next batch.
  pool.submit([&runs] { ++runs; });
  pool.wait_idle();
  EXPECT_EQ(runs.load(), 7);
}

TEST(Parallel, NestedParallelForDoesNotDeadlock) {
  // A worker thread that calls parallel_for runs it inline (waiting on
  // helpers from inside the pool could starve); the caller thread fans out
  // normally. Either way every index runs exactly once.
  std::vector<std::atomic<int>> hits(4 * 8);
  parallel_for(
      4,
      [&](std::size_t outer) {
        parallel_for(
            8, [&, outer](std::size_t inner) { hits[outer * 8 + inner]++; },
            4);
      },
      4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, SharedPoolLeavesRoomForTheCaller) {
  // The shared pool is sized hardware_concurrency() - 1 (floor one worker):
  // the caller joins every batch, so workers + caller fill the machine
  // exactly instead of oversubscribing it by one.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t expected = hw > 1 ? hw - 1 : 1;
  EXPECT_EQ(shared_pool().size(), expected);
}

TEST(Parallel, BatchNeverExceedsPoolPlusCaller) {
  // Oversubscription regression: asking for far more lanes than the machine
  // has must clamp to shared_pool().size() + 1 concurrent participants. The
  // per-iteration spin keeps lanes overlapped long enough that an
  // oversubscribed fan-out would be observed by the high-water mark.
  const std::size_t cap = shared_pool().size() + 1;
  std::atomic<std::size_t> active{0};
  std::atomic<std::size_t> high_water{0};
  parallel_for(
      64,
      [&](std::size_t) {
        const std::size_t now = ++active;
        std::size_t seen = high_water.load();
        while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        --active;
      },
      cap + 16);  // request far more lanes than can exist
  EXPECT_LE(high_water.load(), cap);
  EXPECT_GE(high_water.load(), 1u);
}

TEST(Parallel, ParallelForDefaultsToAutoFanOut) {
  // threads omitted (0 = auto) still covers every index exactly once.
  std::vector<std::atomic<int>> hits(256);
  parallel_for(256, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, SubmitToPinsTasksToOneWorkerInFifoOrder) {
  ThreadPool pool(3);
  const std::vector<std::thread::id> workers = pool.worker_ids();
  ASSERT_EQ(workers.size(), 3u);
  std::mutex mu;
  std::vector<int> order;
  std::set<std::thread::id> ran_on;
  for (int i = 0; i < 20; ++i) {
    pool.submit_to(1, [&, i] {
      std::lock_guard lock(mu);
      order.push_back(i);
      ran_on.insert(std::this_thread::get_id());
    });
  }
  pool.wait_idle();
  // All on worker 1, in submission order — the affinity contract the sharded
  // engine relies on to keep one shard's state warm on one OS thread.
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(*ran_on.begin(), workers[1]);
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(Parallel, SubmitToValidatesWorkerIndexAndPropagatesErrors) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.submit_to(2, [] {}), std::out_of_range);
  // Pinned tasks join the same batch accounting as shared ones: wait_idle
  // covers them and rethrows their first exception.
  std::atomic<int> ran{0};
  pool.submit_to(0, [&ran] {
    ++ran;
    throw std::runtime_error("pinned task failed");
  });
  pool.submit_to(1, [&ran] { ++ran; });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 2);
  pool.submit_to(0, [&ran] { ++ran; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 3);
}

TEST(Parallel, ParallelForReturnsWhileEveryWorkerIsBusy) {
  // The caller never waits for helpers that did not start: with every
  // shared-pool worker blocked on a latch released only after parallel_for
  // returns, the caller must drain the whole index space itself and return.
  // The batch runs on its own thread, bounded by a timeout, so a caller
  // stuck on absent helpers fails the test instead of hanging it.
  ThreadPool& pool = shared_pool();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<std::size_t> blocked{0};
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.submit_to(w, [released, &blocked] {
      ++blocked;
      released.wait();
    });
  }
  while (blocked.load() < pool.size()) std::this_thread::yield();

  std::vector<std::atomic<int>> hits(64);
  auto batch = std::async(std::launch::async, [&hits] {
    parallel_for(hits.size(), [&hits](std::size_t i) { hits[i]++; }, 0);
  });
  const bool returned =
      batch.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  batch.wait();
  pool.wait_idle();  // the late helpers find the batch closed and leave
  EXPECT_TRUE(returned) << "parallel_for waited for helpers that never ran";
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- stats property tests ---------------------------------------------------

TEST(StatsProperty, PercentileMatchesPercentilesOnRandomInputs) {
  Rng rng(7001);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 1 + rng.uniform_index(200);
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform(-1e6, 1e6);
    std::vector<double> ps;
    for (int k = 0; k < 8; ++k) ps.push_back(rng.uniform(0.0, 100.0));
    ps.insert(ps.end(), {0.0, 50.0, 100.0});
    const auto batch = percentiles(v, ps);
    ASSERT_EQ(batch.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      // Same shared helper underneath -> bit-identical, not just close.
      EXPECT_DOUBLE_EQ(batch[i], percentile(v, ps[i]))
          << "iter " << iter << " p=" << ps[i];
    }
  }
}

TEST(StatsProperty, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_TRUE(percentiles({}, std::vector<double>{25.0, 75.0}) ==
              (std::vector<double>{0.0, 0.0}));
  const std::vector<double> one{3.5};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(one, 37.0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(one, 100.0), 3.5);
}

TEST(StatsProperty, MergeMatchesSinglePassOnRandomSplits) {
  Rng rng(7002);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = rng.uniform_index(300);  // includes n == 0
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform(-100.0, 100.0);
    RunningStats all;
    for (double x : v) all.add(x);
    // Split at a random point (possibly 0 or n: empty-side merges).
    const std::size_t cut = rng.uniform_index(n + 1);
    RunningStats left, right;
    for (std::size_t i = 0; i < cut; ++i) left.add(v[i]);
    for (std::size_t i = cut; i < n; ++i) right.add(v[i]);
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-7);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
    EXPECT_NEAR(left.sum(), all.sum(), 1e-7);
  }
}

TEST(StatsProperty, MergeEdgeCases) {
  // empty.merge(empty)
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  // merge into empty
  RunningStats c, d;
  d.add(2.0);
  d.add(4.0);
  c.merge(d);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
  EXPECT_DOUBLE_EQ(c.min(), 2.0);
  EXPECT_DOUBLE_EQ(c.max(), 4.0);
  // merge of one-element accumulators
  RunningStats e, f;
  e.add(1.0);
  f.add(5.0);
  e.merge(f);
  EXPECT_EQ(e.count(), 2u);
  EXPECT_DOUBLE_EQ(e.mean(), 3.0);
  EXPECT_NEAR(e.variance(), 8.0, 1e-12);  // sample variance of {1, 5}
}

// --- hash -------------------------------------------------------------------

TEST(Hash, PinnedAtTheRepoBasis) {
  // The repo basis is not the published FNV-1a 64 basis; "fixing" it would
  // silently re-pin every golden replay, stream, findings and state hash.
  static_assert(kFnvOffset == 0x14650fb0739d0383ull);
  EXPECT_NE(kFnvOffset, 0xcbf29ce484222325ull);
  EXPECT_NE(hash_bytes(kFnvOffset, ""), 0xcbf29ce484222325ull);
  EXPECT_EQ(hash_bytes(kFnvOffset, ""), kFnvOffset);
  EXPECT_EQ(hash_bytes(kFnvOffset, "a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(hash_bytes(kFnvOffset, "spider"), 0x9b9aa13dbf001deeull);
  EXPECT_EQ(hash_u64(kFnvOffset, 0), 0x47fe0d7eaf8e51e3ull);
  EXPECT_EQ(hash_u64(kFnvOffset, 0x0123456789abcdefull),
            0xe1b1f298cfb61863ull);
  EXPECT_EQ(hash_u64(hash_bytes(kFnvOffset, "spider"), 6),
            0xe676599aa340eae8ull);
}

TEST(Hash, U64FoldsLowByteFirst) {
  // Folding a value's 8 bytes low byte first equals hash_bytes over its
  // little-endian encoding.
  const std::string le("\xef\xcd\xab\x89\x67\x45\x23\x01", 8);
  EXPECT_EQ(hash_u64(kFnvOffset, 0x0123456789abcdefull),
            hash_bytes(kFnvOffset, le));
  EXPECT_EQ(hash_bytes(hash_bytes(kFnvOffset, "spi"), "der"),
            hash_bytes(kFnvOffset, "spider"));
}

// --- text -------------------------------------------------------------------

TEST(Text, JsonEscapeEmitsNoRawControlBytes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(json_escape(std::string_view("a\x01" "b\x1b\x00", 5)),
            "a\\u0001b\\u001b\\u0000");
  EXPECT_EQ(json_escape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");  // >= 0x20 as is
}

TEST(Text, ToHexIsSixteenLowercaseDigits) {
  EXPECT_EQ(to_hex(0), "0x0000000000000000");
  EXPECT_EQ(to_hex(0xeb00dba43860647full), "0xeb00dba43860647f");
  EXPECT_EQ(to_hex(~0ull), "0xffffffffffffffff");
}

TEST(Text, ParseCountAcceptsDigitsUpTo64Bits) {
  std::uint64_t v = 7;
  EXPECT_TRUE(parse_count("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_count("0042", v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_count("18446744073709551615", v));  // 2^64 - 1
  EXPECT_EQ(v, ~0ull);
}

TEST(Text, ParseCountRejectsMalformedAndOverflowLeavingOutAlone) {
  for (const char* bad :
       {"", "-1", "+1", " 1", "1 ", "12x", "1e3", "0x10", "1.0",
        "18446744073709551616",    // 2^64
        "18446744073709551617",    // 2^64 + 1: used to wrap to 1
        "184467440737095516150"}) {
    std::uint64_t v = 7;
    EXPECT_FALSE(parse_count(bad, v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "'" << bad << "'";
  }
}

TEST(Text, ParseFiniteAcceptsWholeFiniteNumbers) {
  double d = 0.0;
  EXPECT_TRUE(parse_finite("300", d));
  EXPECT_EQ(d, 300.0);
  EXPECT_TRUE(parse_finite("0.5", d));
  EXPECT_EQ(d, 0.5);
  EXPECT_TRUE(parse_finite("-2.5e3", d));
  EXPECT_EQ(d, -2500.0);
  EXPECT_TRUE(parse_finite("1e300", d));
  EXPECT_EQ(d, 1e300);
}

TEST(Text, ParseFiniteRejectsJunkAndNonFiniteLeavingOutAlone) {
  for (const char* bad : {"", " ", "abc", "1.5x", "2s", "1e", "nan", "NaN",
                          "inf", "-inf", "infinity", "1e309", "-1e309"}) {
    double d = 7.0;
    EXPECT_FALSE(parse_finite(bad, d)) << "'" << bad << "'";
    EXPECT_EQ(d, 7.0) << "'" << bad << "'";
  }
  double d = 7.0;
  EXPECT_FALSE(parse_finite(std::string_view("1\0", 2), d));  // embedded NUL
}

TEST(Text, ReadFileReturnsBytesOrNullopt) {
  EXPECT_FALSE(read_file("/nonexistent/spider/read_file_test").has_value());
  const std::string path = ::testing::TempDir() + "spider_read_file_test.bin";
  const std::string bytes("a\r\nb\0c", 6);
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  const std::optional<std::string> got = read_file(path);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spider
