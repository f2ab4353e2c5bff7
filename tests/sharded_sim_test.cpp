// ShardedSimulator determinism and epoch-contract tests.
//
// The determinism bar (docs/parallel-engine.md): the canonical merged
// replay stream depends only on the workload and the shard *assignment* —
// never on the worker count or on how many (empty) shards the engine has —
// and a single-shard run is byte-identical to the serial Simulator. The
// metamorphic pair: changing the assignment changes the hash; changing the
// shard count does not.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <source_location>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "sim/replay.hpp"
#include "sim/sharded_sim.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace {

using namespace spider;
using sim::kMicrosecond;
using sim::ShardedConfig;
using sim::ShardedReplay;
using sim::ShardedSimulator;
using sim::ShardId;
using sim::ShardMap;
using sim::SimTime;

constexpr SimTime kLookahead = 10 * kMicrosecond;

/// Synthetic multi-zone workload with cross-zone traffic. Every zone runs a
/// chain of ticks `step` apart; every third tick also mails the next zone,
/// which starts a fresh (shorter) chain there on arrival. All scheduling
/// threads one shared source_location so runs are comparable site-by-site.
struct MiniZones {
  ShardedSimulator& engine;
  ShardMap map;
  std::vector<std::uint64_t> ticks;
  SimTime step = 2 * kMicrosecond;

  MiniZones(ShardedSimulator& eng, ShardMap assignment)
      : engine(eng), map(std::move(assignment)), ticks(map.domains(), 0) {}

  sim::Simulator& zone_sim(std::size_t z) {
    return engine.shard(map.shard_of(z));
  }

  void start(int rounds, std::source_location loc) {
    for (std::size_t z = 0; z < ticks.size(); ++z) {
      const SimTime at = static_cast<SimTime>(z + 1) * kMicrosecond;
      zone_sim(z).schedule_at(at, [this, z, rounds, loc] {
        tick(z, rounds, loc);
      }, loc);
    }
  }

  void tick(std::size_t z, int remaining, std::source_location loc) {
    ++ticks[z];
    if (remaining <= 0) return;
    if (remaining % 3 == 0 && ticks.size() > 1) {
      const std::size_t to = (z + 1) % ticks.size();
      const SimTime when = zone_sim(z).now() + kLookahead;
      engine.schedule_cross(map.shard_of(z), map.shard_of(to), when,
                            [this, to, remaining, loc] {
                              tick(to, remaining / 2, loc);
                            },
                            loc);
    }
    zone_sim(z).schedule_in(step, [this, z, remaining, loc] {
      tick(z, remaining - 1, loc);
    }, loc);
  }
};

/// Run MiniZones on a fresh engine and return the canonical merged hash.
std::uint64_t run_mini(std::size_t zones, const ShardMap& map,
                       std::size_t engine_shards, std::size_t workers,
                       std::uint64_t* total_ticks = nullptr) {
  ShardedConfig cfg;
  cfg.lookahead = kLookahead;
  cfg.workers = workers;
  ShardedSimulator engine(engine_shards, cfg);
  ShardedReplay replay(engine);
  MiniZones zones_state(engine, map);
  EXPECT_EQ(zones_state.ticks.size(), zones);
  zones_state.start(12, std::source_location::current());
  engine.run(sim::kMillisecond);
  if (total_ticks) {
    *total_ticks = 0;
    for (const std::uint64_t t : zones_state.ticks) *total_ticks += t;
  }
  return replay.merged_hash();
}

TEST(ShardedSim, RunLandsEveryShardClockOnFiniteHorizon) {
  // The engine's reason for the Simulator::run clock fix: an idle shard
  // must still arrive at the barrier/horizon.
  ShardedSimulator engine(3, ShardedConfig{kLookahead, 1});
  int ran = 0;
  engine.shard(0).schedule_at(5 * kMicrosecond, [&ran] { ++ran; });
  EXPECT_EQ(engine.run(100 * kMicrosecond), 1u);
  EXPECT_EQ(ran, 1);
  for (ShardId s = 0; s < 3; ++s) {
    EXPECT_EQ(engine.shard(s).now(), 100 * kMicrosecond) << "shard " << s;
  }
}

TEST(ShardedSim, EmptyEngineStillAdvancesToHorizon) {
  ShardedSimulator engine(2, ShardedConfig{kLookahead, 1});
  EXPECT_EQ(engine.run(50 * kMicrosecond), 0u);
  EXPECT_EQ(engine.shard(0).now(), 50 * kMicrosecond);
  EXPECT_EQ(engine.shard(1).now(), 50 * kMicrosecond);
  EXPECT_TRUE(engine.idle());
}

TEST(ShardedSim, SingleShardMatchesSerialSimulatorByteForByte) {
  // Identical dynamic workload, one shared scheduling site: the sharded
  // engine's merged stream must equal the serial Simulator's exactly, so
  // the epoch chopping is invisible in the replay hash.
  const std::source_location loc = std::source_location::current();
  const auto seed_workload = [loc](sim::Simulator& sim) {
    for (int i = 0; i < 5; ++i) {
      sim.schedule_at((i + 1) * kMicrosecond, sim::EventFn([&sim, i, loc] {
        // Dynamic follow-ups: scheduled mid-run, ids interleave with the
        // seeded events.
        sim.schedule_in((i + 1) * kMicrosecond, [] {}, loc);
      }),
      loc);
    }
  };

  sim::Simulator serial;
  sim::ReplayRecorder serial_replay;
  serial_replay.attach(serial);
  seed_workload(serial);
  const std::uint64_t serial_ran = serial.run(sim::kMillisecond);

  ShardedSimulator engine(1, ShardedConfig{kLookahead, 1});
  ShardedReplay replay(engine);
  seed_workload(engine.shard(0));
  const std::uint64_t sharded_ran = engine.run(sim::kMillisecond);

  EXPECT_EQ(serial_ran, sharded_ran);
  EXPECT_EQ(replay.serial_equivalent_hash(), serial_replay.event_hash());
  ASSERT_EQ(replay.merged().size(), serial_replay.records().size());
  const auto merged = replay.merged();
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].when, serial_replay.records()[i].when);
    EXPECT_EQ(merged[i].id, serial_replay.records()[i].id);
    EXPECT_EQ(merged[i].site, serial_replay.records()[i].site);
    EXPECT_EQ(merged[i].shard, 0u);
  }
}

TEST(ShardedSim, MergedHashIndependentOfWorkerCount) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const std::size_t zones = 8;
    const ShardMap map(zones, shards);
    std::uint64_t ticks_serial = 0;
    std::uint64_t ticks_parallel = 0;
    const std::uint64_t serial = run_mini(zones, map, shards, 1, &ticks_serial);
    const std::uint64_t parallel =
        run_mini(zones, map, shards, 0, &ticks_parallel);
    EXPECT_EQ(serial, parallel) << "shards=" << shards;
    EXPECT_EQ(ticks_serial, ticks_parallel) << "shards=" << shards;
    EXPECT_GT(ticks_serial, 0u);
  }
}

TEST(ShardedSim, MergedHashIndependentOfShardCount) {
  // Metamorphic: the same assignment run on engines with spare (empty)
  // shards yields the same canonical stream — shard *count* is not an input
  // to the hash, only the assignment is.
  const std::size_t zones = 6;
  const ShardMap map(zones, 3);  // zones -> shards 0..2 round-robin
  const std::uint64_t on3 = run_mini(zones, map, 3, 0);
  const std::uint64_t on8 = run_mini(zones, map, 8, 0);
  EXPECT_EQ(on3, on8);
}

TEST(ShardedSim, MergedHashChangesWithAssignment) {
  // Metamorphic counterpart: moving a domain to a different shard reroutes
  // its events to a different queue (different shard ids, different local
  // EventIds) and must change the merged hash.
  const std::size_t zones = 6;
  const ShardMap base(zones, 3);
  ShardMap moved(zones, 3);
  moved.reassign(0, 1);  // domain 0: shard 0 -> shard 1
  const std::uint64_t base_hash = run_mini(zones, base, 3, 0);
  const std::uint64_t moved_hash = run_mini(zones, moved, 3, 0);
  EXPECT_NE(base_hash, moved_hash);
}

TEST(ShardedSim, LookaheadBreachNamesShardPairAndTimes) {
  ShardedConfig cfg;
  cfg.lookahead = kLookahead;
  cfg.workers = 1;
  ShardedSimulator engine(2, cfg);
  engine.shard(0).schedule_at(kMicrosecond, sim::EventFn([&engine] {
    // Due "now" on the other shard — inside the current epoch, which the
    // lookahead contract forbids.
    engine.schedule_cross(0, 1, engine.shard(0).now(), [] {});
  }));
  try {
    engine.run(sim::kMillisecond);
    FAIL() << "expected a lookahead-contract breach";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("from shard 0 to shard 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lookahead"), std::string::npos) << msg;
    EXPECT_NE(msg.find("epoch ends"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sharded_sim_test.cpp"), std::string::npos) << msg;
  }
}

TEST(ShardedSim, CrossMailboxesDrainInCanonicalSourceOrder) {
  // Two sources mail the same destination for the same time; the message
  // from the lower source shard must get the lower target EventId and run
  // first, regardless of mailbox fill order (shard 2 mails before shard 1).
  ShardedSimulator engine(3, ShardedConfig{kLookahead, 1});
  std::vector<int> order;
  const SimTime when = 5 * kMicrosecond;
  engine.schedule_cross(2, 0, when, [&order] { order.push_back(2); });
  engine.schedule_cross(1, 0, when, [&order] { order.push_back(1); });
  EXPECT_EQ(engine.cross_messages(), 2u);
  engine.run(sim::kMillisecond);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(ShardedSim, SameShardCrossMessagesAreBarrierDeferred) {
  // from == to is legal and still goes through the mailbox, so a domain's
  // stream does not depend on whether its peer happens to share its shard.
  ShardedSimulator engine(2, ShardedConfig{kLookahead, 1});
  bool ran = false;
  engine.schedule_cross(0, 0, 3 * kMicrosecond, [&ran] { ran = true; });
  engine.run(sim::kMillisecond);
  EXPECT_TRUE(ran);
  EXPECT_EQ(engine.cross_messages(), 1u);
}

TEST(ShardedSim, RejectsNonPositiveLookaheadAndZeroShards) {
  EXPECT_THROW(ShardedSimulator(0, ShardedConfig{kLookahead, 1}),
               std::invalid_argument);
  EXPECT_THROW(ShardedSimulator(2, ShardedConfig{0, 1}),
               std::invalid_argument);
}

TEST(ShardedSim, ShardMapValidatesAndRoundRobins) {
  ShardMap map(10, 4);
  EXPECT_EQ(map.domains(), 10u);
  EXPECT_EQ(map.shards(), 4u);
  EXPECT_EQ(map.shard_of(0), 0u);
  EXPECT_EQ(map.shard_of(5), 1u);
  EXPECT_EQ(map.shard_of(7), 3u);
  EXPECT_THROW(map.shard_of(10), std::out_of_range);
  EXPECT_THROW(map.reassign(0, 4), std::out_of_range);
  map.label(3, "ssu-3");
  EXPECT_EQ(map.name_of(3), "ssu-3");
  EXPECT_EQ(map.find("ssu-3"), 3u);
  EXPECT_EQ(map.find("nope"), ShardMap::npos);
}

TEST(ShardedSim, EpochsSkipDeadTime) {
  // Two event clusters a long gap apart: the epoch count must track the
  // clusters (a handful each), not gap / lookahead (which would be 100k).
  ShardedSimulator engine(2, ShardedConfig{kLookahead, 1});
  engine.shard(0).schedule_at(kMicrosecond, [] {});
  engine.shard(1).schedule_at(sim::kSecond, [] {});
  engine.run(2 * sim::kSecond);
  EXPECT_LE(engine.epochs(), 4u);
  EXPECT_EQ(engine.executed_events(), 2u);
}

/// Run `body` on its own thread and wait at most `limit` for it. A body
/// still running then is deadlocked: it can never be joined (and the
/// future's destructor would join it), so the process names the test and
/// exits non-zero instead of hanging the suite.
template <class Fn>
void run_bounded(std::chrono::seconds limit, Fn body) {
  auto done = std::async(std::launch::async, std::move(body));
  if (done.wait_for(limit) != std::future_status::ready) {
    const auto* test = testing::UnitTest::GetInstance()->current_test_info();
    std::fprintf(stderr, "%s.%s: deadlocked, still running after %llds\n",
                 test->test_suite_name(), test->name(),
                 static_cast<long long>(limit.count()));
    std::fflush(nullptr);
    std::_Exit(1);
  }
  done.get();  // surface any assertion-side exception
}

TEST(ShardedSim, ShardEventMayCallParallelForAtAutoLanes) {
  // The lane crew holds every helper lane's pool worker for the whole
  // run(), so a parallel_for from a lane-0 event finds no free worker. It
  // must still return (the caller drains the batch itself) instead of
  // waiting on helpers that cannot start. Events on helper lanes run their
  // parallel_for inline, as any nested call from a pool worker does.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kRounds = 3;
  std::vector<std::atomic<int>> hits(kShards * kRounds * 8);
  ShardedSimulator engine(kShards, ShardedConfig{kLookahead, 0});
  for (ShardId s = 0; s < kShards; ++s) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      const SimTime at = static_cast<SimTime>(r + 1) * 3 * kLookahead;
      engine.shard(s).schedule_at(at, [&hits, s, r] {
        const std::size_t base = (s * kRounds + r) * 8;
        parallel_for(8, [&hits, base](std::size_t i) { hits[base + i]++; }, 0);
      });
    }
  }
  std::uint64_t ran = 0;
  run_bounded(std::chrono::seconds(10),
              [&] { ran = engine.run(sim::kMillisecond); });
  EXPECT_EQ(ran, kShards * kRounds);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ShardedSim, HelperLaneExceptionIsRethrownAndPoolStaysUsable) {
  // At auto lanes shard 1 is a helper lane's home shard, so it normally
  // throws on a pinned pool worker, not the caller. The exception must come
  // out of run() only once its epoch closed (shard 3's slow event in the
  // same epoch has finished), and the workers must be back in the pool:
  // wait_idle, parallel_for and a fresh engine all complete afterwards.
  constexpr std::size_t kShards = 4;
  ASSERT_GE(shared_pool().size() + 1, 2u);
  std::atomic<bool> slow_done{false};
  ShardedSimulator engine(kShards, ShardedConfig{kLookahead, 0});
  engine.shard(1).schedule_at(kMicrosecond, [] {
    throw std::runtime_error("shard 1 failed");
  });
  engine.shard(3).schedule_at(kMicrosecond, [&slow_done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    slow_done = true;
  });
  engine.shard(0).schedule_at(sim::kMillisecond / 2, [] {});
  std::string error;
  run_bounded(std::chrono::seconds(10), [&] {
    try {
      engine.run(sim::kMillisecond);
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
  });
  EXPECT_EQ(error, "shard 1 failed");
  EXPECT_TRUE(slow_done.load());

  // A crew lane that kept its worker would hang wait_idle().
  run_bounded(std::chrono::seconds(10), [] { shared_pool().wait_idle(); });
  std::vector<std::atomic<int>> hits(64);
  run_bounded(std::chrono::seconds(10), [&hits] {
    parallel_for(hits.size(), [&hits](std::size_t i) { hits[i]++; }, 0);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  ShardedSimulator fresh(kShards, ShardedConfig{kLookahead, 0});
  for (ShardId s = 0; s < kShards; ++s) {
    fresh.shard(s).schedule_at(kMicrosecond, [] {});
    fresh.shard(s).schedule_at(5 * kLookahead, [] {});
  }
  std::uint64_t ran = 0;
  run_bounded(std::chrono::seconds(10),
              [&] { ran = fresh.run(sim::kMillisecond); });
  EXPECT_EQ(ran, 2 * kShards);
}

}  // namespace
