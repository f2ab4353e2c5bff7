#include "sim/sharded_sim.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "common/parallel.hpp"

namespace spider::sim {

namespace {

constexpr SimTime kInfiniteHorizon = std::numeric_limits<SimTime>::max();

// How many times a crew lane re-checks a barrier word, with a pause between
// checks, before it parks in std::atomic::wait. A pause costs ~10-140 cycles
// depending on the core (~22 ns on a Sapphire Rapids Xeon), so the budget
// spans ~15-200 us (~90 us there): longer than lane 0's between-epoch drain
// and next-event scan and than a typical churn-workload epoch (a few us
// each), so a busy run hands epochs over without a syscall; far shorter
// than a scheduler quantum, so a lane left waiting on a descheduled peer
// (an oversubscribed host) sleeps instead of burning a core.
constexpr int kSpinBeforePark = 4096;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Spin-then-park until `word` differs from `seen`; returns the new value.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t seen) {
  for (int i = 0; i < kSpinBeforePark; ++i) {
    const std::uint32_t now = word.load(std::memory_order_acquire);
    if (now != seen) return now;
    cpu_relax();
  }
  word.wait(seen, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

/// The lane crew of one parallel run(). Helper lanes 1..lanes-1 are held on
/// their pinned pool workers from the first epoch to the last; lane 0 is
/// the caller. An epoch opens with one release-bump of `epoch` after lane 0
/// has written `horizon` (the first barrier). Every lane then claims shards
/// for that epoch, its home shards (s % lanes == lane) first, and runs each
/// claimed shard up to the horizon; `done` counts finished shards and its
/// last increment wakes lane 0 (the second barrier, which closes the epoch).
///
/// Shards are claimed, not dealt: a claim is a CAS of the shard's epoch
/// stamp from the previous epoch to the open one, so each shard runs once
/// per epoch, whichever lane gets it, and the merged stream is unchanged. A
/// helper that has not started, or whose core the host has taken away,
/// holds no epoch up: the running lanes take its shards. Equally, lane 0
/// never waits for a helper to leave: helpers exit on `stop`, and only a
/// lane that won a claim (so the epoch is still open) touches the engine.
/// Helpers hold the crew by shared_ptr, so a late one never reads freed
/// memory.
struct LaneCrew {
  /// One shard's claim stamp and results, on its own cache line.
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> claimed{0};  // last epoch that claimed it
    // Written by the lane that claimed the shard, read by lane 0 after the
    // epoch closes (the claimer's increment of `done` releases them).
    std::uint64_t ran = 0;
    std::exception_ptr error;
  };

  LaneCrew(std::size_t shards, std::size_t lane_count)
      : lanes(lane_count), slots(shards) {}

  /// Lane 0: publish epoch `horizon`; returns the new epoch number.
  std::uint32_t open(SimTime h) {
    horizon = h;
    done.store(0, std::memory_order_relaxed);
    const std::uint32_t e = epoch.fetch_add(1, std::memory_order_release) + 1;
    epoch.notify_all();
    return e;
  }
  /// Lane 0: wait until every shard of the open epoch has run.
  void await_done() const {
    const auto all = static_cast<std::uint32_t>(slots.size());
    std::uint32_t n = done.load(std::memory_order_acquire);
    while (n != all) n = await_change(done, n);
  }
  /// Lane 0: release the helpers for good. No wait: a helper still on its
  /// way out can no longer win a claim.
  void dismiss() {
    stop.store(true, std::memory_order_relaxed);
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
  }
  /// Any lane: run every shard of epoch `e` it can still claim.
  template <class RunShard>
  void work(std::size_t lane, std::uint32_t e, RunShard& run_shard) {
    for (std::size_t i = lane; i < slots.size(); i += lanes) {
      try_run(i, e, run_shard);
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (i % lanes != lane) try_run(i, e, run_shard);
    }
  }
  /// Helper lane `lane`: claim shards of each new epoch until dismissed.
  template <class RunShard>
  void serve(std::size_t lane, RunShard run_shard) {
    std::uint32_t seen = 0;
    for (;;) {
      seen = await_change(epoch, seen);
      if (stop.load(std::memory_order_relaxed)) return;
      work(lane, seen, run_shard);
    }
  }
  /// Lane 0, after an epoch closed: the lowest shard's error, if any shard
  /// threw. Moves every error out, so a helper that outlives run() never
  /// holds the last reference to an exception the caller is handling.
  std::exception_ptr take_error() {
    if (!failed.load(std::memory_order_relaxed)) return nullptr;
    std::exception_ptr first;
    for (Slot& slot : slots) {
      std::exception_ptr e = std::exchange(slot.error, nullptr);
      if (!first) first = std::move(e);
    }
    return first;
  }
  std::uint64_t ran() const {
    std::uint64_t total = 0;
    for (const Slot& slot : slots) total += slot.ran;
    return total;
  }

  const std::size_t lanes;
  std::vector<Slot> slots;
  // Written by lane 0 before it bumps `epoch`; read only by a lane that
  // has won a claim in that epoch, which lane 0 waits for before it writes
  // the next one.
  SimTime horizon = 0;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  // Separate cache lines: helpers spin on `epoch`, lane 0 on `done`.
  alignas(64) std::atomic<std::uint32_t> epoch{0};
  alignas(64) std::atomic<std::uint32_t> done{0};

 private:
  template <class RunShard>
  void try_run(std::size_t i, std::uint32_t e, RunShard& run_shard) {
    Slot& slot = slots[i];
    std::uint32_t prev = e - 1;
    // A relaxed load first skips shards already taken without dirtying
    // their cache line.
    if (slot.claimed.load(std::memory_order_relaxed) != prev ||
        !slot.claimed.compare_exchange_strong(prev, e,
                                              std::memory_order_acq_rel)) {
      return;
    }
    try {
      slot.ran += run_shard(i, horizon);
    } catch (...) {
      slot.error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == slots.size()) {
      done.notify_one();
    }
  }
};

}  // namespace

// --- ShardMap ---------------------------------------------------------------

ShardMap::ShardMap(std::size_t domains, std::size_t shards) : shards_(shards) {
  if (domains == 0) throw std::invalid_argument("ShardMap: domains must be >= 1");
  if (shards == 0) throw std::invalid_argument("ShardMap: shards must be >= 1");
  assign_.resize(domains);
  names_.resize(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    assign_[d] = static_cast<ShardId>(d % shards);
  }
}

ShardId ShardMap::shard_of(std::size_t domain) const {
  if (domain >= assign_.size()) {
    throw std::out_of_range("ShardMap::shard_of: unknown domain");
  }
  return assign_[domain];
}

void ShardMap::reassign(std::size_t domain, ShardId shard) {
  if (domain >= assign_.size()) {
    throw std::out_of_range("ShardMap::reassign: unknown domain");
  }
  if (shard >= shards_) {
    throw std::out_of_range("ShardMap::reassign: shard out of range");
  }
  assign_[domain] = shard;
}

void ShardMap::label(std::size_t domain, std::string name) {
  if (domain >= names_.size()) {
    throw std::out_of_range("ShardMap::label: unknown domain");
  }
  names_[domain] = std::move(name);
}

const std::string& ShardMap::name_of(std::size_t domain) const {
  if (domain >= names_.size()) {
    throw std::out_of_range("ShardMap::name_of: unknown domain");
  }
  return names_[domain];
}

std::size_t ShardMap::find(std::string_view name) const {
  for (std::size_t d = 0; d < names_.size(); ++d) {
    if (names_[d] == name) return d;
  }
  return npos;
}

// --- ShardedSimulator -------------------------------------------------------

ShardedSimulator::ShardedSimulator(std::size_t shards, ShardedConfig cfg)
    : cfg_(cfg) {
  if (shards == 0) {
    throw std::invalid_argument("ShardedSimulator: shards must be >= 1");
  }
  if (cfg_.lookahead <= 0) {
    throw std::invalid_argument("ShardedSimulator: lookahead must be positive");
  }
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  outbox_.resize(shards * shards);
}

Simulator& ShardedSimulator::shard(ShardId s) {
  if (s >= shards_.size()) {
    throw std::out_of_range("ShardedSimulator::shard: index out of range");
  }
  return *shards_[s];
}

const Simulator& ShardedSimulator::shard(ShardId s) const {
  if (s >= shards_.size()) {
    throw std::out_of_range("ShardedSimulator::shard: index out of range");
  }
  return *shards_[s];
}

void ShardedSimulator::schedule_cross(ShardId from, ShardId to, SimTime when,
                                      EventFn fn, std::source_location loc) {
  const std::size_t s = shards_.size();
  if (from >= s || to >= s) {
    throw std::out_of_range("schedule_cross: shard index out of range");
  }
  if (when < epoch_end_) {
    // The sharded form of schedule_at's past-time diagnostic: a message due
    // before the barrier could land behind another shard's clock, which is
    // exactly the causality violation the lookahead contract rules out.
    std::ostringstream msg;
    msg << "schedule_cross: lookahead contract breach from shard " << from
        << " to shard " << to << " (when=" << when
        << "ns, current epoch ends at " << epoch_end_
        << "ns, lookahead=" << cfg_.lookahead << "ns; scheduled from "
        << source_basename(loc.file_name()) << ":" << loc.line() << ")";
    throw std::logic_error(msg.str());
  }
  // Only the lane currently executing shard `from` (or the caller outside a
  // run) touches this cell, so the mailbox write needs no lock.
  outbox_[from * s + to].push_back(CrossMsg{when, std::move(fn), site_hash(loc)});
  cross_messages_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedSimulator::drain_mailboxes() {
  const std::size_t s = shards_.size();
  // Canonical (destination, source shard, FIFO) order: target-local
  // EventIds depend only on this order, never on which lane finished first.
  for (std::size_t to = 0; to < s; ++to) {
    for (std::size_t from = 0; from < s; ++from) {
      std::vector<CrossMsg>& box = outbox_[from * s + to];
      for (CrossMsg& msg : box) {
        shards_[to]->schedule_sited(msg.when, std::move(msg.fn), msg.site);
      }
      box.clear();
    }
  }
}

std::optional<SimTime> ShardedSimulator::next_epoch(SimTime until) {
  // Land messages queued before this round (setup code or the previous
  // epoch) so they count toward the next-event scan.
  drain_mailboxes();
  SimTime next = kInfiniteHorizon;
  for (const auto& sh : shards_) next = std::min(next, sh->next_event_time());
  if (next == kInfiniteHorizon || next > until) return std::nullopt;
  // Conservative epoch [next, next + lookahead): every event inside is
  // causally closed — a cross message sent from within cannot be due
  // before the window ends. Starting at `next` skips dead time.
  const SimTime epoch_end =
      next > kInfiniteHorizon - cfg_.lookahead ? kInfiniteHorizon
                                               : next + cfg_.lookahead;
  const SimTime horizon = std::min(epoch_end - 1, until);
  epoch_end_ = horizon + 1;
  return horizon;
}

std::uint64_t ShardedSimulator::run_crew(SimTime until, std::size_t lanes) {
  ThreadPool& pool = shared_pool();
  auto crew = std::make_shared<LaneCrew>(shards_.size(), lanes);
  auto run_shard = [this](std::size_t i, SimTime h) {
    return shards_[i]->run(h);
  };
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    // Pin lane -> worker so a lane's home shards hit the same OS thread (and
    // its warm cache) on every epoch, and on every run() of the engine.
    pool.submit_to(lane - 1, [crew, lane, run_shard] {
      crew->serve(lane, run_shard);
    });
  }
  std::exception_ptr err;
  try {
    while (const std::optional<SimTime> h = next_epoch(until)) {
      crew->work(0, crew->open(*h), run_shard);
      crew->await_done();
      err = crew->take_error();
      if (err) break;
      ++epochs_;
    }
  } catch (...) {
    // Only the between-epoch step can land here, with no epoch open.
    err = std::current_exception();
  }
  crew->dismiss();
  if (err) std::rethrow_exception(err);
  return crew->ran();
}

std::uint64_t ShardedSimulator::run(SimTime until) {
  ThreadPool& pool = shared_pool();
  std::size_t lanes = cfg_.workers == 0 ? pool.size() + 1 : cfg_.workers;
  lanes = std::min({lanes, shards_.size(), pool.size() + 1});
  std::uint64_t ran = 0;
  // Serial path: explicit request, nothing to parallelize, or a nested call
  // from a pool worker (blocking on pinned lanes from inside the pool could
  // starve — run inline, which is deterministic anyway). It is the crew's
  // epoch loop with the caller running every shard.
  if (lanes <= 1 || pool.on_worker_thread()) {
    while (const std::optional<SimTime> h = next_epoch(until)) {
      for (const auto& sh : shards_) ran += sh->run(*h);
      ++epochs_;
    }
  } else {
    ran = run_crew(until, lanes);
  }
  // Uniform horizon semantics, mirroring Simulator::run: a finite `until`
  // lands every shard clock exactly on it, idle shards included.
  if (until != kInfiniteHorizon) {
    for (const auto& sh : shards_) sh->run(until);
  }
  return ran;
}

std::uint64_t ShardedSimulator::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->executed_events();
  return total;
}

bool ShardedSimulator::idle() const {
  for (const auto& sh : shards_) {
    if (!sh->idle()) return false;
  }
  for (const auto& box : outbox_) {
    if (!box.empty()) return false;
  }
  return true;
}

// --- ShardedReplay ----------------------------------------------------------

ShardedReplay::ShardedReplay(ShardedSimulator& engine) {
  recorders_.reserve(engine.shards());
  for (std::size_t s = 0; s < engine.shards(); ++s) {
    recorders_.push_back(std::make_unique<ReplayRecorder>());
    recorders_.back()->attach(engine.shard(static_cast<ShardId>(s)));
  }
}

std::vector<ShardedReplay::Record> ShardedReplay::merged() const {
  std::vector<Record> out;
  out.reserve(events_recorded());
  for (std::size_t s = 0; s < recorders_.size(); ++s) {
    for (const ReplayRecorder::Record& r : recorders_[s]->records()) {
      out.push_back(Record{r.when, static_cast<ShardId>(s), r.id, r.site});
    }
  }
  // Each shard's slice is already (when, id)-sorted — serial dispatch order
  // — so this sort is a k-way merge into the canonical (when, shard, id)
  // order. stable_sort is not needed: the key is unique per record.
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.id < b.id;
  });
  return out;
}

std::uint64_t ShardedReplay::merged_hash() const {
  std::uint64_t h = kFnvOffset;
  for (const Record& r : merged()) {
    h = hash_u64(h, static_cast<std::uint64_t>(r.when));
    h = hash_u64(h, r.shard);
    h = hash_u64(h, r.id);
    h = hash_u64(h, r.site);
  }
  return h;
}

std::uint64_t ShardedReplay::stream_hash() const {
  std::uint64_t h = kFnvOffset;
  for (const Record& r : merged()) {
    h = hash_u64(h, static_cast<std::uint64_t>(r.when));
    h = hash_u64(h, r.shard);
    h = hash_u64(h, r.id);
  }
  return h;
}

std::uint64_t ShardedReplay::serial_equivalent_hash() const {
  ReplayRecorder serial_form;
  for (const Record& r : merged()) serial_form.on_event(r.when, r.id, r.site);
  return serial_form.event_hash();
}

std::size_t ShardedReplay::events_recorded() const {
  std::size_t n = 0;
  for (const auto& r : recorders_) n += r->events_recorded();
  return n;
}

}  // namespace spider::sim
