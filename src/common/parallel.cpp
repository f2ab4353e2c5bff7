#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

namespace spider {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  pinned_.resize(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    ++submitted_;
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::submit_to(std::size_t worker, std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    if (worker >= pinned_.size()) {
      throw std::out_of_range("submit_to: worker index out of range");
    }
    ++submitted_;
    pinned_[worker].push(std::move(task));
  }
  // notify_all: notify_one could wake a worker other than the pinned target,
  // which would go back to sleep and strand the task.
  cv_task_.notify_all();
}

void ThreadPool::wait_idle() {
  std::exception_ptr err;
  {
    std::unique_lock lock(mu_);
    // submitted_ == finished_ implies the queue is empty AND nothing is
    // mid-flight: a running task that submits follow-up work increments
    // submitted_ before it retires (finished_ lags), so the predicate stays
    // false across the handoff. The old `queue empty && nothing running`
    // predicate could momentarily hold between a task draining the queue
    // and its follow-up submission landing.
    cv_idle_.wait(lock, [this] { return submitted_ == finished_; });
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

std::vector<std::thread::id> ThreadPool::worker_ids() const {
  std::vector<std::thread::id> ids;
  ids.reserve(workers_.size());
  for (const auto& w : workers_) ids.push_back(w.get_id());
  return ids;
}

bool ThreadPool::on_worker_thread() const {
  const std::thread::id self = std::this_thread::get_id();
  for (const auto& w : workers_) {
    if (w.get_id() == self) return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this, index] {
        return stop_ || !pinned_[index].empty() || !tasks_.empty();
      });
      // The pinned queue drains first: affinity work (a sharded-engine
      // lane, every run) should not queue behind unrelated shared-pool
      // batches.
      if (!pinned_[index].empty()) {
        task = std::move(pinned_[index].front());
        pinned_[index].pop();
      } else if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop();
      } else {
        return;  // stop_ set and nothing left for this worker
      }
    }
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      ++finished_;
      assert(finished_ <= submitted_);  // accounting must balance
      if (err && !first_error_) first_error_ = std::move(err);
      notify_if_idle_locked();
    }
  }
}

void ThreadPool::notify_if_idle_locked() {
  if (submitted_ == finished_) cv_idle_.notify_all();
}

ThreadPool& shared_pool() {
  // Meyers singleton: constructed on first use, joined during static
  // destruction (workers are idle by then — nothing submits after main
  // returns), and LSan-clean under the ASan gate.
  //
  // Sized to hardware_concurrency() - 1 (minimum one worker): parallel_for's
  // calling thread participates in its own batch, so a pool of
  // hardware_concurrency workers would oversubscribe the machine by one
  // thread on every batch. Workers + caller now fill the machine exactly.
  const unsigned hw = std::thread::hardware_concurrency();
  static ThreadPool pool(hw > 1 ? hw - 1 : 1);
  return pool;
}

namespace {

/// Shared state of one parallel_for batch. Helpers submitted to the shared
/// pool hold the state via shared_ptr, so a helper scheduled late (after the
/// caller already finished the index space and returned) still has valid
/// state to look at.
struct BatchState {
  const std::function<void(std::size_t)>* fn = nullptr;  // caller-owned
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done;
  /// Helpers that joined the batch and have not left it yet.
  std::size_t active SPIDER_GUARDED_BY(mu) = 0;
  /// Set by the caller once it has drained the index space. A helper that
  /// starts after this returns without touching `fn`, so the caller never
  /// waits for helpers that never started — every pool worker may be busy
  /// (say, held by a sharded-engine lane crew whose lane 0 called us).
  bool closed SPIDER_GUARDED_BY(mu) = false;
  std::exception_ptr first_error SPIDER_GUARDED_BY(mu);

  /// Claim-and-run indices until the space is exhausted or a failure stops
  /// the batch. `fn` stays valid for every helper that joined before the
  /// batch closed: the caller blocks until `active` reaches zero.
  void run_range() {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        {
          std::lock_guard lock(mu);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }

  /// A pool helper's whole task: join unless closed, run, leave.
  void help() {
    {
      std::lock_guard lock(mu);
      if (closed) return;
      ++active;
    }
    run_range();
    std::lock_guard lock(mu);
    if (--active == 0) done.notify_all();
  }
};

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (n == 0) return;
  ThreadPool& pool = shared_pool();
  // threads == 0 is "auto": one lane per pool worker plus the caller — the
  // machine's full width with no oversubscription.
  if (threads == 0) threads = pool.size() + 1;
  // Inline paths: explicit serial request, trivial batch, or a nested call
  // from a pool worker (waiting on helpers from inside the pool could
  // deadlock if every worker did it; inline is deterministic and safe).
  if (threads <= 1 || n == 1 || pool.on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  const std::size_t lanes = std::min({threads, n, pool.size() + 1});
  const std::size_t helpers = lanes - 1;  // the caller is lane 0
  auto state = std::make_shared<BatchState>();
  state->fn = &fn;
  state->n = n;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([state] { state->help(); });
  }

  state->run_range();

  std::exception_ptr err;
  {
    std::unique_lock lock(state->mu);
    state->closed = true;
    state->done.wait(lock, [&] { return state->active == 0; });
    err = std::exchange(state->first_error, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace spider
