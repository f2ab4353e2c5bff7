// Cross-module property sweeps (TEST_P): invariants that must hold over
// whole parameter ranges, not just the defaults.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "block/disk.hpp"
#include "block/raid.hpp"
#include "common/rng.hpp"
#include "fs/changelog.hpp"
#include "fs/fs_namespace.hpp"
#include "fs/journal.hpp"
#include "fs/purge.hpp"
#include "tools/scheduler.hpp"
#include "tools/spiderfsck/fsck.hpp"
#include "workload/checkpoint.hpp"
#include "workload/ior.hpp"

namespace spider {
namespace {

// --- disk envelope -------------------------------------------------------------------

class DiskEnvelopeP : public ::testing::TestWithParam<double> {};

TEST_P(DiskEnvelopeP, RandomFractionCalibrationHoldsAcrossProducts) {
  // Whatever random_fraction_1mb a disk product is specified with, the
  // model must deliver exactly that ratio at the 1 MiB calibration point.
  block::DiskParams params;
  params.random_fraction_1mb = GetParam();
  const block::Disk d(params, 0, 1.0, 1e-4);
  const double ratio =
      d.effective_bw(block::IoMode::kRandom, block::IoDir::kRead, 1_MiB) /
      d.effective_bw(block::IoMode::kSequential, block::IoDir::kRead);
  EXPECT_NEAR(ratio, GetParam(), 1e-9);
}

TEST_P(DiskEnvelopeP, RandomEfficiencyMonotoneInRequestSize) {
  block::DiskParams params;
  params.random_fraction_1mb = GetParam();
  const block::Disk d(params, 0, 1.0, 1e-4);
  double prev = 0.0;
  for (Bytes size : {4_KiB, 64_KiB, 256_KiB, 1_MiB, 4_MiB, 16_MiB}) {
    const double bw =
        d.effective_bw(block::IoMode::kRandom, block::IoDir::kRead, size);
    EXPECT_GE(bw, prev);
    prev = bw;
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, DiskEnvelopeP,
                         ::testing::Values(0.15, 0.20, 0.22, 0.25, 0.35));

// --- RAID geometry --------------------------------------------------------------------

class RaidGeometryP
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(RaidGeometryP, CapacityAndLossThresholdFollowGeometry) {
  const auto [data, parity] = GetParam();
  block::RaidParams params;
  params.data_disks = data;
  params.parity_disks = parity;
  std::vector<block::Disk> members;
  for (std::size_t i = 0; i < data + parity; ++i) {
    members.emplace_back(block::DiskParams{}, static_cast<std::uint32_t>(i),
                         1.0, 1e-4);
  }
  block::Raid6Group g(params, std::move(members));
  EXPECT_EQ(g.capacity(), data * block::DiskParams{}.capacity);
  // Exactly `parity` failures survive; one more loses data.
  for (std::size_t f = 0; f < parity; ++f) g.fail_member(f);
  EXPECT_FALSE(g.data_lost());
  g.fail_member(parity);
  EXPECT_TRUE(g.data_lost());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RaidGeometryP,
    ::testing::Values(std::pair<std::size_t, std::size_t>{8, 2},
                      std::pair<std::size_t, std::size_t>{4, 2},
                      std::pair<std::size_t, std::size_t>{8, 3},
                      std::pair<std::size_t, std::size_t>{10, 2}));

// --- IOR transfer-size curve ------------------------------------------------------------

class IorCapP : public ::testing::TestWithParam<double> {};

TEST_P(IorCapP, CapMonotoneUpToRpcAndPeaksThere) {
  const Bandwidth stream = GetParam() * kMBps;
  double prev = 0.0;
  for (Bytes t : {4_KiB, 16_KiB, 64_KiB, 256_KiB, 1_MiB}) {
    const double cap = workload::transfer_size_rate_cap(t, stream);
    EXPECT_GT(cap, prev);
    EXPECT_LE(cap, stream);
    prev = cap;
  }
  const double at_rpc = workload::transfer_size_rate_cap(1_MiB, stream);
  for (Bytes t : {2_MiB, 8_MiB, 64_MiB}) {
    EXPECT_LE(workload::transfer_size_rate_cap(t, stream), at_rpc);
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, IorCapP,
                         ::testing::Values(100.0, 350.0, 620.0, 1200.0));

// --- purge safety -------------------------------------------------------------------------

class PurgeSafetyP : public ::testing::TestWithParam<double> {};

TEST_P(PurgeSafetyP, NeverPurgesInsideTheWindow) {
  const double window_days = GetParam();
  std::vector<std::unique_ptr<block::Raid6Group>> groups;
  std::vector<std::unique_ptr<fs::Ost>> osts;
  std::vector<fs::Ost*> ptrs;
  for (int i = 0; i < 4; ++i) {
    std::vector<block::Disk> members;
    for (int m = 0; m < 10; ++m) {
      members.emplace_back(block::DiskParams{}, m, 1.0, 1e-4);
    }
    groups.push_back(std::make_unique<block::Raid6Group>(block::RaidParams{},
                                                         std::move(members)));
    osts.push_back(std::make_unique<fs::Ost>(i, groups.back().get()));
    ptrs.push_back(osts.back().get());
  }
  fs::FsNamespace ns("scratch", ptrs);
  Rng rng(1);
  const auto now = static_cast<sim::SimTime>(60) * sim::kDay;
  std::vector<fs::FileId> inside, outside;
  for (int age_days = 0; age_days < 40; ++age_days) {
    const auto created = now - static_cast<sim::SimTime>(age_days) * sim::kDay;
    const auto id = ns.create_file(1, 1_GiB, created, rng);
    // A file touched exactly at the window boundary is kept (the purge
    // condition is strictly-older-than); classify it as inside.
    (static_cast<double>(age_days) <= window_days ? inside : outside)
        .push_back(id);
  }
  fs::run_purge(ns, now, fs::PurgePolicy{window_days});
  for (auto id : inside) EXPECT_TRUE(ns.exists(id)) << "window " << window_days;
  for (auto id : outside) EXPECT_FALSE(ns.exists(id));
}

INSTANTIATE_TEST_SUITE_P(Windows, PurgeSafetyP,
                         ::testing::Values(7.0, 14.0, 21.0, 30.0));

// --- checkpoint sizing rule -----------------------------------------------------------------

class CheckpointSizingP : public ::testing::TestWithParam<double> {};

TEST_P(CheckpointSizingP, RequiredBandwidthScalesWithFraction) {
  workload::CheckpointParams params;
  params.checkpoint_fraction = GetParam();
  const workload::CheckpointWorkload w(params);
  // bytes/window must equal fraction x memory / window exactly.
  EXPECT_NEAR(w.required_bandwidth(360.0),
              GetParam() * static_cast<double>(params.memory_bytes) / 360.0,
              1.0);
}

INSTANTIATE_TEST_SUITE_P(Fractions, CheckpointSizingP,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

// --- scheduler load conservation --------------------------------------------------------------

class SchedulerConservationP : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerConservationP, SchedulingMovesLoadButConservesIt) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<tools::IosiSignature> apps;
  const int n = 2 + GetParam() % 4;
  for (int i = 0; i < n; ++i) {
    tools::IosiSignature sig;
    sig.found = true;
    sig.period_s = 300.0 * (1 + rng.uniform_index(4));
    sig.burst_duration_s = rng.uniform(20.0, 90.0);
    sig.burst_bytes = rng.uniform(50.0, 500.0) * 1e9;
    sig.confidence = 1.0;
    apps.push_back(sig);
  }
  const auto schedule = tools::schedule_applications(apps);
  tools::SchedulerConfig cfg;
  const std::vector<double> zeros(apps.size(), 0.0);
  const auto naive = tools::aggregate_timeline(apps, zeros, cfg);
  const auto planned = tools::aggregate_timeline(apps, schedule.offsets, cfg);
  double naive_sum = 0.0, planned_sum = 0.0;
  for (double v : naive) naive_sum += v;
  for (double v : planned) planned_sum += v;
  // Offsets shift bursts within the horizon; total volume stays within the
  // edge-effect tolerance of one period per app.
  EXPECT_NEAR(planned_sum, naive_sum, 0.25 * naive_sum);
  // And the peak never gets worse.
  EXPECT_LE(schedule.scheduled_peak_bw, schedule.naive_peak_bw + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerConservationP, ::testing::Range(0, 8));

// --- fsck soundness ---------------------------------------------------------

class FsckSoundnessP : public ::testing::TestWithParam<int> {};

TEST_P(FsckSoundnessP, TruncatedJournalOrUnjournaledChurnNeverChecksClean) {
  // However the namespace and its op log are driven apart — a crash that
  // loses a journal tail, unlinks that never hit the journal, or both —
  // spiderfsck must never report the tree clean, one repairing pass must
  // reconcile it, and a second repairing pass must change nothing.
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(0x5fc5u + seed * 0x9e3779b97f4a7c15ull);
  tools::SyntheticFsConfig cfg;
  cfg.seed = 100 + seed;
  cfg.churn = 0.10 + 0.05 * static_cast<double>(seed % 5);
  tools::SyntheticFs fs = tools::make_synthetic_fs(cfg);
  ASSERT_TRUE(tools::run_fsck(fs.target()).clean());

  const int mode = GetParam() % 3;  // 0: truncate, 1: churn, 2: both
  if (mode == 0 || mode == 2) {
    // Crash-truncate: keep a strict prefix, dropping at least one record.
    const std::uint64_t last = fs.journal->last_txid();
    ASSERT_GT(last, 0u);
    fs.journal->truncate_to(rng.uniform_index(last));
  }
  if (mode == 1 || mode == 2) {
    // Unlink live files behind the journal's back.
    const std::vector<fs::FileId> live = fs.ns->live_ids();
    ASSERT_FALSE(live.empty());
    const std::size_t victims = 1 + rng.uniform_index(3);
    for (std::size_t i = 0; i < victims && i < live.size(); ++i) {
      ASSERT_TRUE(fs.ns->unlink(live[i], 0));
    }
  }

  const tools::FsckReport dry = tools::run_fsck(fs.target());
  ASSERT_FALSE(dry.clean()) << "mode=" << mode << " seed=" << seed;

  tools::FsckOptions repair;
  repair.repair = true;
  tools::run_fsck(fs.target(), repair);
  EXPECT_TRUE(tools::run_fsck(fs.target()).clean())
      << "mode=" << mode << " seed=" << seed << "\n"
      << tools::fsck_report_json(tools::run_fsck(fs.target()));

  // Repair is idempotent: a second repairing pass over the repaired tree
  // applies nothing and leaves the state exactly as the first pass left it.
  const std::uint64_t repaired_hash = tools::fsck_state_hash(fs.target());
  const tools::FsckReport again = tools::run_fsck(fs.target(), repair);
  EXPECT_EQ(again.repairs_applied, 0u) << "mode=" << mode << " seed=" << seed;
  EXPECT_EQ(again.state_hash, repaired_hash)
      << "mode=" << mode << " seed=" << seed;
  EXPECT_EQ(tools::fsck_state_hash(fs.target()), repaired_hash);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsckSoundnessP, ::testing::Range(0, 9));

// --- changelog crash consistency ------------------------------------------
//
// The ROADMAP item 2 property: a changelog consumer that detects the
// crash-rewind (cursor_ahead) and rebuilds is indistinguishable, at any
// shard fan-out, from a consumer built from scratch over the same log —
// even when the crash makes the log reuse txids for different operations.

namespace {

/// One random namespace mutation; the attached log records it.
void churn_once(fs::FsNamespace& ns, std::vector<fs::FileId>& pool,
                sim::SimTime now, Rng& rng) {
  const std::uint64_t roll = rng.uniform_index(10);
  if (roll < 3 || pool.empty()) {
    const fs::FileId id = ns.create_file(
        static_cast<std::uint32_t>(rng.uniform_index(6)),
        (1 + rng.uniform_index(16)) * 1_MiB, now, rng);
    if (id != fs::kNoFile) pool.push_back(id);
    return;
  }
  const std::size_t pick =
      static_cast<std::size_t>(rng.uniform_index(pool.size()));
  const fs::FileId victim = pool[pick];
  if (roll < 5) {
    if (ns.unlink(victim, now)) {
      pool[pick] = pool.back();
      pool.pop_back();
    }
  } else if (roll < 7) {
    ns.touch_file(victim, now);
  } else if (roll < 9) {
    ns.resize_file(victim, (1 + rng.uniform_index(16)) * 1_MiB, now);
  } else {
    ns.set_project(victim,
                   static_cast<std::uint32_t>(rng.uniform_index(6)), now);
  }
}

}  // namespace

class ChangelogCrashP : public ::testing::TestWithParam<int> {};

TEST_P(ChangelogCrashP, DetectAndRebuildConvergesWithFromScratchReplay) {
  const int seed = GetParam();
  Rng rng(4242 + static_cast<std::uint64_t>(seed));

  tools::SyntheticFsConfig cfg;
  cfg.files = 96;
  cfg.churn = 0.25;
  cfg.seed = 100 + static_cast<std::uint64_t>(seed);
  tools::SyntheticFs fs = tools::make_synthetic_fs(cfg);
  fs::FsNamespace& ns = *fs.ns;
  fs::OpLog& log = *fs.journal;
  ns.attach_oplog(&log, fs::kLogDefault);

  fs::ChangelogAccounting acct(
      static_cast<std::uint32_t>(1 + rng.uniform_index(4)));
  ASSERT_FALSE(acct.consume(log).cursor_ahead);
  std::vector<fs::FileId> pool = ns.live_ids();

  bool crashed = false;
  sim::SimTime now = 0;
  for (int round = 0; round < 6; ++round) {
    const std::size_t ops = 16 + rng.uniform_index(32);
    for (std::size_t op = 0; op < ops; ++op) {
      now += sim::kSecond;
      churn_once(ns, pool, now, rng);
    }
    log.commit(log.last_txid());

    if (round == 3) {
      // Crash: lose a committed suffix the consumer already applied. The
      // consumer MUST notice (txids will be reused) and rebuild; silently
      // continuing is the misaccounting this property forbids.
      log.truncate_to(rng.uniform_index(acct.cursor()));
      crashed = true;
      const fs::ConsumeResult res = acct.consume(log);
      ASSERT_TRUE(res.cursor_ahead) << "seed=" << seed;
      const fs::ConsumeResult rebuilt = acct.rebuild(log);
      ASSERT_FALSE(rebuilt.cursor_ahead) << "seed=" << seed;
      ASSERT_FALSE(rebuilt.gap) << "seed=" << seed;
      continue;
    }

    const fs::ConsumeResult res = acct.consume(log);
    ASSERT_FALSE(res.cursor_ahead) << "seed=" << seed << " round=" << round;
    ASSERT_FALSE(res.gap) << "seed=" << seed << " round=" << round;
    if (!crashed) {
      // Until the crash, the log and the namespace agree, so the derived
      // accounting must match ground truth exactly. (After the crash the
      // namespace keeps the lost mutations' effects — by design only the
      // committed prefix is authoritative for consumers.)
      EXPECT_EQ(acct.usage(), ns.usage_by_project())
          << "seed=" << seed << " round=" << round;
    }
  }

  // The surviving consumer is byte-identical to one built from scratch
  // over the same committed prefix, at a different shard fan-out.
  fs::ChangelogAccounting scratch(
      static_cast<std::uint32_t>(1 + rng.uniform_index(8)));
  const fs::ConsumeResult replay = scratch.rebuild(log);
  ASSERT_FALSE(replay.cursor_ahead);
  ASSERT_FALSE(replay.gap);
  EXPECT_EQ(acct.table_hash(), scratch.table_hash()) << "seed=" << seed;
  EXPECT_EQ(acct.usage(), scratch.usage()) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChangelogCrashP, ::testing::Range(0, 8));

// --- changelog shard determinism ------------------------------------------

class ChangelogShardsP : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ChangelogShardsP, AccountingIsShardCountInvariant) {
  const std::uint32_t shards = GetParam();
  Rng rng(77);

  tools::SyntheticFsConfig cfg;
  cfg.files = 128;
  cfg.churn = 0.25;
  tools::SyntheticFs fs = tools::make_synthetic_fs(cfg);
  fs::FsNamespace& ns = *fs.ns;
  fs::OpLog& log = *fs.journal;
  ns.attach_oplog(&log, fs::kLogDefault);

  std::vector<fs::FileId> pool = ns.live_ids();
  sim::SimTime now = 0;
  for (int op = 0; op < 256; ++op) {
    now += sim::kSecond;
    churn_once(ns, pool, now, rng);
  }
  log.commit(log.last_txid());

  // Every fan-out derives the identical table — and the table is the truth.
  fs::ChangelogAccounting flat(1);
  flat.rebuild(log);
  fs::ChangelogAccounting acct(shards);
  acct.rebuild(log);
  EXPECT_EQ(acct.table_hash(), flat.table_hash()) << shards;
  EXPECT_EQ(acct.usage(), flat.usage()) << shards;
  EXPECT_EQ(acct.usage(), ns.usage_by_project()) << shards;
}

INSTANTIATE_TEST_SUITE_P(FanOut, ChangelogShardsP,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 16u));

}  // namespace
}  // namespace spider
