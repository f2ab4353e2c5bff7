#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "block/raid.hpp"
#include "common/rng.hpp"
#include "fs/filesystem.hpp"
#include "fs/fs_namespace.hpp"
#include "fs/journal.hpp"
#include "fs/mds.hpp"
#include "fs/obdsurvey.hpp"
#include "fs/oss.hpp"
#include "fs/ost.hpp"
#include "fs/purge.hpp"
#include "fs/recovery.hpp"
#include "fs/striping.hpp"
#include "sim/oracle.hpp"
#include "tools/faultcli/campaign.hpp"

namespace spider::fs {
namespace {

std::vector<block::Disk> healthy_members(std::size_t n = 10) {
  std::vector<block::Disk> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(block::DiskParams{}, static_cast<std::uint32_t>(i), 1.0,
                     1e-4);
  }
  return out;
}

/// A small self-owning OST fleet for namespace tests.
struct Fleet {
  std::vector<std::unique_ptr<block::Raid6Group>> groups;
  std::vector<std::unique_ptr<Ost>> osts;
  std::vector<Ost*> ptrs;

  explicit Fleet(std::size_t n, const OstParams& params = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      groups.push_back(std::make_unique<block::Raid6Group>(
          block::RaidParams{}, healthy_members()));
      osts.push_back(std::make_unique<Ost>(static_cast<std::uint32_t>(i),
                                           groups.back().get(), params));
      ptrs.push_back(osts.back().get());
    }
  }
};

// --- journal ------------------------------------------------------------------

TEST(Journal, ModesOrderedByEfficiency) {
  JournalModel sync{JournalMode::kSyncOnData};
  JournalModel async{JournalMode::kAsync};
  JournalModel hp{JournalMode::kHighPerformance};
  EXPECT_LT(sync.write_efficiency(), async.write_efficiency());
  EXPECT_LT(async.write_efficiency(), hp.write_efficiency());
  EXPECT_GT(sync.commit_latency_s(), hp.commit_latency_s());
}

// --- OST ----------------------------------------------------------------------

TEST(Ost, AllocateReleaseTracksUsage) {
  Fleet fleet(1);
  Ost& o = *fleet.ptrs[0];
  EXPECT_TRUE(o.allocate(1_GiB));
  EXPECT_EQ(o.used(), 1_GiB);
  EXPECT_EQ(o.object_count(), 1u);
  o.release(1_GiB);
  EXPECT_EQ(o.used(), 0u);
  EXPECT_FALSE(o.allocate(o.capacity() + 1));
}

TEST(Ost, FullnessFactorKnees) {
  Fleet fleet(1);
  Ost& o = *fleet.ptrs[0];
  auto at = [&](double f) {
    o.set_used(static_cast<Bytes>(static_cast<double>(o.capacity()) * f));
    return o.fullness_factor();
  };
  EXPECT_DOUBLE_EQ(at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(at(0.49), 1.0);      // below the 50% knee: no loss
  EXPECT_LT(at(0.6), 1.0);              // gentle decline
  EXPECT_GT(at(0.6), 0.9);
  EXPECT_NEAR(at(0.7), 0.9, 1e-9);      // the paper's severe-degradation knee
  EXPECT_LT(at(0.85), at(0.7) - 0.05);  // steep beyond 70%
  EXPECT_GE(at(1.0), OstParams{}.factor_floor - 1e-9);
}

TEST(Ost, BandwidthIncludesFsOverheads) {
  Fleet fleet(1);
  Ost& o = *fleet.ptrs[0];
  const double block_bw = o.group().bandwidth(block::IoMode::kSequential,
                                              block::IoDir::kWrite, 1_MiB);
  const double fs_bw =
      o.bandwidth(block::IoMode::kSequential, block::IoDir::kWrite, 1_MiB);
  EXPECT_LT(fs_bw, block_bw);
  EXPECT_GT(fs_bw, 0.8 * block_bw);  // high-performance journaling: small tax
}

TEST(Ost, RejectsNullGroup) {
  EXPECT_THROW(Ost(0, nullptr), std::invalid_argument);
}

// --- OSS ----------------------------------------------------------------------

TEST(Oss, DeliveredBwCappedByNode) {
  Fleet fleet(8);
  Oss oss(0, OssParams{}, 0);
  for (Ost* o : fleet.ptrs) oss.attach(o);
  const double delivered =
      oss.delivered_bw(block::IoMode::kSequential, block::IoDir::kWrite);
  EXPECT_NEAR(delivered, oss.node_bw(), 1.0);  // 8 OSTs exceed one node
  EXPECT_DOUBLE_EQ(oss.node_bw(),
                   std::min(OssParams{}.net_bw, OssParams{}.cpu_bw));
}

TEST(Oss, FewOstsAreOstBound) {
  Fleet fleet(1);
  Oss oss(0, OssParams{}, 0);
  oss.attach(fleet.ptrs[0]);
  EXPECT_LT(oss.delivered_bw(block::IoMode::kSequential, block::IoDir::kWrite),
            oss.node_bw());
}

// --- striping allocator ---------------------------------------------------------

TEST(Allocator, AllocatesDistinctOsts) {
  Fleet fleet(8);
  OstAllocator alloc(fleet.ptrs, AllocatorMode::kRoundRobin);
  Rng rng(1);
  const auto chosen = alloc.allocate(4, 4_GiB, rng);
  ASSERT_EQ(chosen.size(), 4u);
  std::set<std::uint32_t> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(Allocator, RoundRobinCoversAllOsts) {
  Fleet fleet(4);
  OstAllocator alloc(fleet.ptrs, AllocatorMode::kRoundRobin);
  Rng rng(2);
  for (int i = 0; i < 4; ++i) alloc.allocate(1, 1_GiB, rng);
  for (Ost* o : fleet.ptrs) EXPECT_EQ(o->used(), 1_GiB);
}

TEST(Allocator, QosAvoidsFullOsts) {
  Fleet fleet(4);
  // Fill OST 0 to 90%.
  fleet.ptrs[0]->set_used(
      static_cast<Bytes>(static_cast<double>(fleet.ptrs[0]->capacity()) * 0.9));
  OstAllocator alloc(fleet.ptrs, AllocatorMode::kQosWeighted);
  Rng rng(3);
  for (int i = 0; i < 30; ++i) alloc.allocate(1, 1_GiB, rng);
  // The full OST received (almost) nothing beyond its initial fill.
  EXPECT_LT(fleet.ptrs[0]->object_count(), 3u);
}

TEST(Allocator, ReleaseRestoresSpace) {
  Fleet fleet(2);
  OstAllocator alloc(fleet.ptrs, AllocatorMode::kRoundRobin);
  Rng rng(4);
  const auto chosen = alloc.allocate(2, 2_GiB, rng);
  alloc.release(chosen, 2_GiB);
  EXPECT_EQ(fleet.ptrs[0]->used(), 0u);
  EXPECT_EQ(fleet.ptrs[1]->used(), 0u);
}

TEST(Allocator, FailsCleanlyWhenFull) {
  Fleet fleet(2);
  for (Ost* o : fleet.ptrs) o->set_used(o->capacity());
  OstAllocator alloc(fleet.ptrs, AllocatorMode::kRoundRobin);
  Rng rng(5);
  EXPECT_TRUE(alloc.allocate(1, 1_GiB, rng).empty());
  // And the failure didn't leak reservations.
  for (Ost* o : fleet.ptrs) EXPECT_EQ(o->used(), o->capacity());
}

TEST(Allocator, ResizeMovesBytesNotObjects) {
  Fleet fleet(2);
  OstAllocator alloc(fleet.ptrs, AllocatorMode::kRoundRobin);
  Rng rng(6);
  const auto chosen = alloc.allocate(2, 2_GiB, rng);
  ASSERT_EQ(chosen.size(), 2u);
  ASSERT_TRUE(alloc.resize(chosen, 2_GiB, 4_GiB));  // grow
  for (Ost* o : fleet.ptrs) {
    EXPECT_EQ(o->used(), 2_GiB);
    EXPECT_EQ(o->object_count(), 1u);
  }
  ASSERT_TRUE(alloc.resize(chosen, 4_GiB, 1_GiB));  // shrink
  for (Ost* o : fleet.ptrs) {
    EXPECT_EQ(o->used(), 512_MiB);
    EXPECT_EQ(o->object_count(), 1u);
  }
  // A grow that fits on OST 0 but not OST 1 rolls OST 0 back too.
  fleet.ptrs[1]->set_used(fleet.ptrs[1]->capacity() - 1_MiB);
  EXPECT_FALSE(alloc.resize(chosen, 1_GiB, 2_GiB));
  EXPECT_EQ(fleet.ptrs[0]->used(), 512_MiB);
  for (Ost* o : fleet.ptrs) EXPECT_EQ(o->object_count(), 1u);
  alloc.release(chosen, 1_GiB);
  EXPECT_EQ(fleet.ptrs[0]->used(), 0u);
  for (Ost* o : fleet.ptrs) EXPECT_EQ(o->object_count(), 0u);
}

// --- MDS -------------------------------------------------------------------------

TEST(Mds, DneScalesCapacity) {
  MdsParams single;
  MdsParams dne = single;
  dne.dne_shards = 4;
  EXPECT_NEAR(Mds(dne).capacity_ops() / Mds(single).capacity_ops(),
              1.0 + 3.0 * single.dne_efficiency, 1e-9);
}

TEST(Mds, StatCostGrowsWithStripeCount) {
  Mds mds;
  // The paper's best practice: stat on a wide-striped file touches every
  // OST, so small files should use stripe count 1.
  EXPECT_GT(mds.op_cost(MetaOp::kStat, 8), 2.0 * mds.op_cost(MetaOp::kStat, 1));
}

TEST(Mds, LatencyExplodesNearSaturation) {
  Mds mds;
  const double cap = mds.capacity_ops();
  EXPECT_LT(mds.mean_latency_s(0.1 * cap), mds.mean_latency_s(0.9 * cap));
  EXPECT_GT(mds.mean_latency_s(0.999 * cap), 100.0 * mds.mean_latency_s(0.1 * cap));
  EXPECT_DOUBLE_EQ(mds.throughput(2.0 * cap), cap);
}

TEST(Mds, AccountingAccumulates) {
  Mds mds;
  mds.account(MetaOp::kCreate);
  mds.account(MetaOp::kStat, 4);
  EXPECT_EQ(mds.ops_seen(), 2u);
  EXPECT_GT(mds.accounted_load(), 0.0);
  mds.reset_accounting();
  EXPECT_EQ(mds.ops_seen(), 0u);
}

// --- namespace --------------------------------------------------------------------

struct NamespaceFixture : ::testing::Test {
  Fleet fleet{8};
  FsNamespace ns{"test-ns", fleet.ptrs, MdsParams{},
                 AllocatorMode::kRoundRobin, StripePolicy{2, 1_MiB}};
  Rng rng{7};
};

TEST_F(NamespaceFixture, CreateStatReadUnlinkLifecycle) {
  const FileId id = ns.create_file(/*project=*/1, 4_GiB, sim::kHour, rng);
  ASSERT_NE(id, kNoFile);
  EXPECT_TRUE(ns.exists(id));
  EXPECT_EQ(ns.live_files(), 1u);
  EXPECT_EQ(ns.file(id).size, 4_GiB);
  EXPECT_EQ(ns.stripes_of(ns.file(id)).size(), 2u);
  EXPECT_EQ(ns.used(), 4_GiB);

  ns.read_file(id, 2 * sim::kHour);
  EXPECT_EQ(ns.file(id).atime, 2 * sim::kHour);
  EXPECT_TRUE(ns.unlink(id, 3 * sim::kHour));
  EXPECT_FALSE(ns.exists(id));
  EXPECT_EQ(ns.used(), 0u);
  EXPECT_FALSE(ns.unlink(id, 3 * sim::kHour));  // double unlink
}

TEST_F(NamespaceFixture, StaleIdsNeverAliasAfterSlotReuse) {
  const FileId a = ns.create_file(1, 1_GiB, 0, rng);
  ns.unlink(a, 0);
  const FileId b = ns.create_file(1, 1_GiB, 0, rng);
  EXPECT_NE(a, b);
  EXPECT_FALSE(ns.exists(a));
  EXPECT_TRUE(ns.exists(b));
}

TEST_F(NamespaceFixture, PerProjectUsage) {
  ns.create_file(1, 1_GiB, 0, rng);
  ns.create_file(1, 1_GiB, 0, rng);
  ns.create_file(2, 2_GiB, 0, rng);
  const auto usage = ns.usage_by_project();
  EXPECT_EQ(usage.at(1), 2_GiB);
  EXPECT_EQ(usage.at(2), 2_GiB);
}

TEST_F(NamespaceFixture, MetadataOpsAccountedOnMds) {
  const double before = ns.mds().accounted_load();
  const FileId id = ns.create_file(1, 1_GiB, 0, rng);
  ns.stat_file(id);
  ns.read_file(id, 0);
  ns.touch_file(id, 0);
  EXPECT_GT(ns.mds().accounted_load(), before + 3.0);
}

TEST_F(NamespaceFixture, StripePolicyOverride) {
  const FileId id =
      ns.create_file(1, 1_GiB, 0, rng, StripePolicy{1, 1_MiB});
  EXPECT_EQ(ns.stripes_of(ns.file(id)).size(), 1u);
}

TEST_F(NamespaceFixture, CreateFailsWhenNoSpace) {
  for (Ost* o : fleet.ptrs) o->set_used(o->capacity());
  EXPECT_EQ(ns.create_file(1, 1_GiB, 0, rng), kNoFile);
}

TEST_F(NamespaceFixture, ForEachFileVisitsLiveOnly) {
  const FileId a = ns.create_file(1, 1_GiB, 0, rng);
  ns.create_file(1, 1_GiB, 0, rng);
  ns.unlink(a, 0);
  std::size_t count = 0;
  ns.for_each_file([&](const FileRecord&) { ++count; });
  EXPECT_EQ(count, 1u);
}

// --- filesystem ---------------------------------------------------------------------

TEST(FileSystem, RoutesProjectsToAssignedNamespaces) {
  Fleet fleet_a(4), fleet_b(4);
  FileSystem fs("spider");
  fs.add_namespace(std::make_unique<FsNamespace>("ns0", fleet_a.ptrs));
  fs.add_namespace(std::make_unique<FsNamespace>("ns1", fleet_b.ptrs));
  fs.assign_project(7, 1);
  Rng rng(8);
  fs.create_file(7, 1_GiB, 0, rng);
  EXPECT_EQ(fs.ns(1).live_files(), 1u);
  EXPECT_EQ(fs.ns(0).live_files(), 0u);
  EXPECT_EQ(fs.live_files(), 1u);
  EXPECT_NE(fs.find("ns1"), nullptr);
  EXPECT_EQ(fs.find("nope"), nullptr);
  EXPECT_THROW(fs.assign_project(1, 5), std::out_of_range);
}

TEST(FileSystem, UnassignedProjectsHashAcrossNamespaces) {
  Fleet fleet_a(2), fleet_b(2);
  FileSystem fs("spider");
  fs.add_namespace(std::make_unique<FsNamespace>("ns0", fleet_a.ptrs));
  fs.add_namespace(std::make_unique<FsNamespace>("ns1", fleet_b.ptrs));
  EXPECT_EQ(fs.namespace_of(4), 0u);
  EXPECT_EQ(fs.namespace_of(5), 1u);
}

// --- purge ------------------------------------------------------------------------

TEST(Purge, DeletesOnlyFilesOutsideWindow) {
  Fleet fleet(4);
  FsNamespace ns("scratch", fleet.ptrs);
  Rng rng(9);
  const FileId old_file = ns.create_file(1, 1_GiB, 0, rng);
  const FileId recent = ns.create_file(1, 1_GiB, 20 * sim::kDay, rng);
  const FileId touched = ns.create_file(1, 1_GiB, 0, rng);
  ns.read_file(touched, 19 * sim::kDay);  // read access protects it

  const auto report = run_purge(ns, 21 * sim::kDay, PurgePolicy{14.0});
  EXPECT_EQ(report.purged, 1u);
  EXPECT_EQ(report.freed, 1_GiB);
  EXPECT_FALSE(ns.exists(old_file));
  EXPECT_TRUE(ns.exists(recent));
  EXPECT_TRUE(ns.exists(touched));
  EXPECT_GT(report.mds_ops, 0.0);
}

TEST(Purge, ExemptProjectSurvives) {
  Fleet fleet(2);
  FsNamespace ns("scratch", fleet.ptrs);
  Rng rng(10);
  ns.create_file(42, 1_GiB, 0, rng);
  PurgePolicy policy;
  policy.exempt_project = 42;
  const auto report = run_purge(ns, 30 * sim::kDay, policy);
  EXPECT_EQ(report.purged, 0u);
  EXPECT_EQ(ns.live_files(), 1u);
}

TEST(Purge, KeepsFullnessBoundedOverTime) {
  // 60 simulated days of steady creation with a daily 14-day purge: usage
  // must plateau at ~14 days of production instead of growing.
  Fleet fleet(8);
  FsNamespace ns("scratch", fleet.ptrs);
  Rng rng(11);
  Bytes peak = 0;
  for (int day = 0; day < 60; ++day) {
    const auto now = static_cast<sim::SimTime>(day) * sim::kDay;
    for (int f = 0; f < 20; ++f) ns.create_file(1 + f % 3, 2_GiB, now, rng);
    run_purge(ns, now, PurgePolicy{14.0});
    peak = std::max(peak, ns.used());
  }
  // Steady state: 15 days x 20 files x 2 GiB.
  EXPECT_LE(peak, 15u * 20u * 2_GiB);
  EXPECT_GE(ns.live_files(), 14u * 20u);
}

// Purge edge cases, each cross-checked by the purge-age oracle: whatever a
// sweep does, it must never have deleted a file younger than the window.
void expect_purge_age_clean(const std::vector<PurgeReport>& reports,
                            double window_days, sim::SimTime now) {
  const auto oracle = tools::make_purge_age_oracle(reports, window_days);
  std::vector<sim::OracleViolation> violations;
  oracle->check(now, violations);
  EXPECT_TRUE(violations.empty()) << sim::violations_json(violations);
}

TEST(Purge, EmptyNamespaceSweepIsACleanNoop) {
  Fleet fleet(2);
  FsNamespace ns("scratch", fleet.ptrs);
  const auto report = run_purge(ns, 30 * sim::kDay, PurgePolicy{14.0});
  EXPECT_EQ(report.scanned, 0u);
  EXPECT_EQ(report.purged, 0u);
  EXPECT_EQ(report.freed, 0u);
  // Nothing purged => the youngest-purged age sentinel stays +infinity,
  // which the oracle must treat as vacuously safe.
  EXPECT_TRUE(std::isinf(report.min_purged_age_s));
  expect_purge_age_clean({report}, 14.0, 30 * sim::kDay);
}

TEST(Purge, AllFilesPinnedLeavesNamespaceUntouched) {
  Fleet fleet(2);
  FsNamespace ns("scratch", fleet.ptrs);
  Rng rng(12);
  PurgePolicy policy;
  policy.exempt_project = 42;
  for (int f = 0; f < 5; ++f) ns.create_file(42, 1_GiB, 0, rng);
  const auto report = run_purge(ns, 60 * sim::kDay, policy);
  EXPECT_EQ(report.scanned, 5u);
  EXPECT_EQ(report.purged, 0u);
  EXPECT_EQ(ns.live_files(), 5u);
  EXPECT_TRUE(std::isinf(report.min_purged_age_s));
  expect_purge_age_clean({report}, policy.window_days, 60 * sim::kDay);
}

TEST(Purge, CreateRacingSweepAtPolicyBoundarySurvives) {
  // A file whose last touch lands exactly on the cutoff instant of a
  // concurrently running sweep must survive: eligibility is strictly
  // "older than the window", so the boundary belongs to the file.
  Fleet fleet(2);
  FsNamespace ns("scratch", fleet.ptrs);
  Rng rng(13);
  const PurgePolicy policy{14.0};
  const sim::SimTime now = 30 * sim::kDay;
  const sim::SimTime cutoff = now - 14 * sim::kDay;
  const FileId at_boundary = ns.create_file(1, 1_GiB, cutoff, rng);
  const FileId one_tick_older = ns.create_file(1, 1_GiB, cutoff - 1, rng);

  const auto report = run_purge(ns, now, policy);
  EXPECT_TRUE(ns.exists(at_boundary));
  EXPECT_FALSE(ns.exists(one_tick_older));
  EXPECT_EQ(report.purged, 1u);
  // The one purged file was (just barely) old enough; the oracle agrees.
  EXPECT_GE(report.min_purged_age_s, 14.0 * 24 * 3600);
  expect_purge_age_clean({report}, policy.window_days, now);
}

// --- obdfilter survey -----------------------------------------------------------

TEST(ObdSurvey, ThroughputRampsWithThreads) {
  Fleet fleet(1);
  Rng rng(12);
  const auto rows = run_obdfilter_survey(*fleet.ptrs[0], ObdSurveyConfig{}, rng);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_LT(rows[0].write_bw, rows[2].write_bw);  // 1 -> 4 threads ramps
  // Saturated region is flat-ish.
  EXPECT_NEAR(rows[3].write_bw, rows[2].write_bw, 0.15 * rows[2].write_bw);
  for (const auto& r : rows) {
    EXPECT_GT(r.read_bw, r.write_bw);  // reads skip parity + journal
    EXPECT_GT(r.rewrite_bw, 0.9 * r.write_bw);
  }
}

TEST(ObdSurvey, OverheadFractionIsSmallButPositive) {
  Fleet fleet(1);
  const double overhead =
      fs_overhead_fraction(*fleet.ptrs[0], block::IoDir::kWrite);
  EXPECT_GT(overhead, 0.02);
  EXPECT_LT(overhead, 0.25);
}

// --- replay_from_cursor exact boundaries ------------------------------------
// The crash/corruption edge cases that used to misaccount silently: a cursor
// at, one past, and far past the tail, a cursor into a truncate_to-lost
// tail, and interior gaps from records_mutable corruption.

namespace {

OpLog make_log(int n) {
  OpLog log;
  for (int i = 0; i < n; ++i) {
    log.append(OpKind::kCreate, 100 + static_cast<std::uint64_t>(i), 0, 1_MiB,
               i);
  }
  return log;
}

}  // namespace

TEST(JournalReplay, CursorAtTailReplaysNothingCleanly) {
  const OpLog log = make_log(5);
  const JournalReplayOutcome out = replay_from_cursor(log, log.last_txid());
  EXPECT_EQ(out.replayed, 0u);
  EXPECT_EQ(out.new_cursor, 5u);
  EXPECT_FALSE(out.cursor_ahead);
  EXPECT_FALSE(out.gap);
}

TEST(JournalReplay, CursorOnePastTailIsAheadNotASilentNoop) {
  const OpLog log = make_log(5);
  const JournalReplayOutcome out =
      replay_from_cursor(log, log.last_txid() + 1);
  EXPECT_TRUE(out.cursor_ahead);
  EXPECT_EQ(out.replayed, 0u);
  // Clamped to the tail so the consumer rebuilds from a real position
  // instead of carrying a txid the next append will reuse.
  EXPECT_EQ(out.new_cursor, log.last_txid());
}

TEST(JournalReplay, CursorIntoTruncateLostTailIsDetected) {
  OpLog log = make_log(8);
  // A consumer saw txid 8, then the crash dropped everything past 4.
  log.truncate_to(4);
  const JournalReplayOutcome out = replay_from_cursor(log, 8);
  EXPECT_TRUE(out.cursor_ahead);
  EXPECT_EQ(out.replayed, 0u);
  EXPECT_EQ(out.new_cursor, 4u);

  // After the clamp, replay from the clamped position is clean — and new
  // appends reusing the lost txids are picked up as ordinary records.
  log.append(OpKind::kUnlink, 100, 0, 1_MiB, 99);
  const JournalReplayOutcome again = replay_from_cursor(log, 4);
  EXPECT_FALSE(again.cursor_ahead);
  EXPECT_FALSE(again.gap);
  EXPECT_EQ(again.replayed, 1u);
  EXPECT_EQ(again.new_cursor, 5u);
}

TEST(JournalReplay, InteriorGapNamesTheFirstMissingTxid) {
  OpLog log = make_log(6);
  auto& recs = log.records_mutable();
  recs.erase(recs.begin() + 2);  // drop txid 3
  const JournalReplayOutcome out = replay_from_cursor(log, 0);
  EXPECT_TRUE(out.gap);
  EXPECT_EQ(out.first_gap_txid, 3u);
  EXPECT_EQ(out.replayed, 5u);  // surviving records still counted
  EXPECT_EQ(out.new_cursor, 6u);
}

TEST(JournalReplay, GapBeforeTheCursorIsOldNews) {
  OpLog log = make_log(6);
  auto& recs = log.records_mutable();
  recs.erase(recs.begin() + 1);  // drop txid 2
  // A consumer already past the hole must not re-diagnose it forever.
  const JournalReplayOutcome out = replay_from_cursor(log, 3);
  EXPECT_FALSE(out.gap);
  EXPECT_EQ(out.replayed, 3u);
  EXPECT_EQ(out.new_cursor, 6u);
}

TEST(JournalReplay, MissingTailBehindLastTxidIsAGap) {
  OpLog log = make_log(5);
  auto& recs = log.records_mutable();
  recs.pop_back();  // last_txid() still says 5, but record 5 is gone
  const JournalReplayOutcome out = replay_from_cursor(log, 0);
  EXPECT_TRUE(out.gap);
  EXPECT_EQ(out.first_gap_txid, 5u);
  EXPECT_EQ(out.replayed, 4u);
}

TEST(JournalReplay, EmptyLogFromZeroIsClean) {
  const OpLog log;
  const JournalReplayOutcome out = replay_from_cursor(log, 0);
  EXPECT_EQ(out.replayed, 0u);
  EXPECT_EQ(out.new_cursor, 0u);
  EXPECT_FALSE(out.cursor_ahead);
  EXPECT_FALSE(out.gap);
}

}  // namespace
}  // namespace spider::fs
