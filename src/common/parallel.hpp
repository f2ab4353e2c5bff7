// Minimal task parallelism: a fixed thread pool plus parallel_for.
//
// Benchmarks sweep large parameter spaces (Lesson 15 warns scaling studies
// are expensive); independent sweep points run concurrently across hardware
// threads. Simulations themselves stay single-threaded and deterministic —
// parallelism is only across independent runs.
//
// parallel_for no longer spawns threads: every call routes through one
// process-wide shared ThreadPool (see shared_pool()), so sweep benches and
// spiderfault --jobs=N pay thread creation once per process instead of once
// per batch. The calling thread participates in its own batch, which both
// speeds small batches up and makes nested calls from a worker thread
// deadlock-free (they simply run inline).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotations.hpp"

namespace spider {

/// Fixed-size worker pool. Tasks are void() callables. An exception escaping
/// a task does not kill the worker: the first exception per batch is
/// captured and rethrown from the next wait_idle() call; later exceptions in
/// the same batch are dropped.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);
  /// Enqueue onto one specific worker's pinned queue (FIFO per worker,
  /// drained ahead of the shared queue). Pinning gives repeat submitters —
  /// like the sharded simulator pinning its lane crew on every run() — cache
  /// affinity: shard state stays warm on one OS thread across runs.
  /// Pinned tasks count toward wait_idle() like shared ones. Throws
  /// std::out_of_range when `worker` >= size().
  void submit_to(std::size_t worker, std::function<void()> task);
  /// Block until every task submitted so far — including follow-up tasks
  /// that running tasks submit — has finished, then rethrow the first
  /// exception any task in the batch raised (clearing it, so the pool stays
  /// usable for the next batch). Completion is counted against
  /// submitted-vs-finished totals, not a momentarily drained queue: a task
  /// that submit()s more work bumps the submitted count before it retires,
  /// so wait_idle() cannot slip through the gap between "queue empty" and
  /// "follow-up enqueued".
  void wait_idle();

  std::size_t size() const { return workers_.size(); }

  /// Ids of the pool's worker threads. Lets tests prove that consecutive
  /// parallel_for batches reuse the same OS threads instead of spawning.
  std::vector<std::thread::id> worker_ids() const;

  /// True when called from one of this pool's worker threads.
  bool on_worker_thread() const;

 private:
  void worker_loop(std::size_t index);
  /// Wake wait_idle() when every submitted task has finished. Caller holds
  /// mu_ — the predicate check and the notification must be serialized or
  /// the wakeup can be lost.
  void notify_if_idle_locked() SPIDER_REQUIRES(mu_);

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::queue<std::function<void()>> tasks_ SPIDER_GUARDED_BY(mu_);
  /// One pinned FIFO per worker, serviced before the shared queue.
  std::vector<std::queue<std::function<void()>>> pinned_ SPIDER_GUARDED_BY(mu_);
  std::exception_ptr first_error_ SPIDER_GUARDED_BY(mu_);
  std::uint64_t submitted_ SPIDER_GUARDED_BY(mu_) = 0;
  std::uint64_t finished_ SPIDER_GUARDED_BY(mu_) = 0;
  bool stop_ SPIDER_GUARDED_BY(mu_) = false;
};

/// The process-wide pool parallel_for drains into. Created on first use and
/// alive until process exit. Sized to hardware_concurrency() - 1 (minimum
/// one worker): the calling thread participates in every parallel_for
/// batch, so workers + caller together fill the machine exactly — a pool of
/// hardware_concurrency workers plus the caller oversubscribed by one.
ThreadPool& shared_pool();

/// Run fn(i) for i in [0, n) across up to `threads` concurrent participants
/// (pool workers plus the calling thread, which joins its own batch).
/// `threads` == 0 means "auto": one lane per shared-pool worker plus the
/// caller — the whole machine, no oversubscription. The effective fan-out
/// never exceeds shared_pool().size() + 1 regardless of `threads`. Blocks
/// until all iterations complete, but never for a helper that has not
/// started: the caller drains the index space itself if it must, then waits
/// only for helpers that joined, so the call returns even while every pool
/// worker is busy (e.g. held by a sharded-engine lane crew whose lane-0
/// event called it). With threads == 1 (or n == 1), or when
/// called from a shared-pool worker thread (nested parallelism), runs
/// inline — which keeps single-threaded determinism trivially available.
/// If any iteration throws, remaining un-started iterations are skipped and
/// the first exception is rethrown on the calling thread after the batch
/// drains.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace spider
