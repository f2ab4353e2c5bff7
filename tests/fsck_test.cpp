// spiderfsck breach-proof and determinism tests.
//
// Two bars are pinned here:
//   1. Breach-proofing: for every finding kind, a seeded corruption is
//      detected by a dry run, repaired by one repairing pass, and the
//      repaired tree re-checks clean — with every campaign oracle passing
//      again on the repaired state (the inject -> detect -> fsck ->
//      re-run-oracles loop from docs/fsck.md).
//   2. Determinism: findings come out in one canonical order, so the
//      report JSON, findings hash and repaired-state hash are a function of
//      the tree alone. IncidentGolden.CorruptRepairTraceIsPinned
//      (incident_golden_test.cpp) pins both hashes for a campaign tree.
//
// The DISABLED_UnrepairedCorruptTreeMustFail test is registered separately
// in tests/CMakeLists.txt with WILL_FAIL: it asserts a corrupt tree checks
// clean, which must fail — pinning that the detectors actually detect (a
// fsck that reports clean on damage would pass every other test here).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fs/recovery.hpp"
#include "sim/faultplan.hpp"
#include "tools/faultcli/campaign.hpp"
#include "tools/spiderfsck/fsck.hpp"

namespace {

using namespace spider;

// A quiet campaign: background workload and oracle sweeps, no injections.
// Corruption comes from inject_corruption, not the fault plan, so every
// oracle violation observed post-repair is the fsck stage's fault. The
// horizon is long enough for purge sweeps to unlink files (the campaign
// purge window is ~173s), so the op log holds both create and unlink
// records for the journal-facing injections to chew on.
sim::FaultPlan quiet_plan() {
  return sim::parse_fault_plan(R"(
name = "fsck-quiet"
horizon_s = 420
)");
}

constexpr tools::FindingKind kCampaignKinds[] = {
    tools::FindingKind::kBadRecordId,
    tools::FindingKind::kDanglingStripe,
    tools::FindingKind::kJournalMissingCreate,
    tools::FindingKind::kJournalMissingUnlink,
    tools::FindingKind::kJournalGhostUnlink,
    tools::FindingKind::kLiveCountDrift,
    tools::FindingKind::kCreateCountDrift,
    tools::FindingKind::kOrphanObjects,
    tools::FindingKind::kLostObjects,
};

bool has_kind(const tools::FsckReport& report, tools::FindingKind kind) {
  for (const tools::Finding& f : report.findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

TEST(FsckBreach, EveryKindIsDetectedRepairedAndOraclesPassAgain) {
  for (const tools::FindingKind kind : kCampaignKinds) {
    SCOPED_TRACE(std::string(tools::finding_kind_name(kind)));
    tools::FaultCampaign campaign(quiet_plan(), 2014);
    const tools::RunVerdict verdict = campaign.run();
    ASSERT_TRUE(verdict.clean()) << tools::verdict_json(verdict);

    Rng rng(7 + static_cast<std::uint64_t>(kind));
    const std::string damage =
        tools::inject_corruption(campaign.fsck_target(), kind, rng);
    ASSERT_FALSE(damage.empty());

    // Detect: a dry run names the injected kind and reports dirty.
    const tools::FsckReport dry =
        tools::run_fsck(campaign.fsck_target(), tools::FsckOptions{});
    EXPECT_FALSE(dry.clean()) << damage;
    EXPECT_TRUE(has_kind(dry, kind))
        << damage << "\n" << tools::fsck_report_json(dry);

    // Repair: one pass converges and all six oracles pass on the repaired
    // state (PR-3 oracle suite re-run via recheck_now()).
    const tools::FaultCampaign::FsckOutcome out = campaign.fsck_and_reverify();
    EXPECT_FALSE(out.report.clean());
    EXPECT_GT(out.report.repairs_applied, 0u);
    EXPECT_TRUE(out.converged) << tools::fsck_report_json(out.report);
    EXPECT_TRUE(out.post_violations.empty())
        << sim::violations_json(out.post_violations);
    EXPECT_TRUE(out.post_clean());
  }
}

TEST(FsckBreach, DneLoadDriftIsDetectedAndRepaired) {
  // The campaign cluster models a single-MDS namespace; the DNE facet is
  // exercised on the synthetic cluster instead.
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  Rng rng(99);
  const std::string damage = tools::inject_corruption(
      fs.target(), tools::FindingKind::kDneLoadDrift, rng);
  ASSERT_FALSE(damage.empty());
  const tools::FsckReport dry = tools::run_fsck(fs.target());
  EXPECT_TRUE(has_kind(dry, tools::FindingKind::kDneLoadDrift));

  tools::FsckOptions repair;
  repair.repair = true;
  EXPECT_FALSE(tools::run_fsck(fs.target(), repair).clean());
  EXPECT_TRUE(tools::run_fsck(fs.target()).clean());
}

TEST(FsckBreach, CleanTreesProduceNoFindings) {
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  const tools::FsckReport report = tools::run_fsck(fs.target());
  EXPECT_TRUE(report.clean()) << tools::fsck_report_json(report);
  EXPECT_EQ(report.slots_scanned, fs.ns->slot_count());
  EXPECT_EQ(report.live_files, fs.ns->live_files());

  tools::FaultCampaign campaign(quiet_plan(), 2014);
  campaign.run();
  const tools::FsckReport campaign_report =
      tools::run_fsck(campaign.fsck_target());
  EXPECT_TRUE(campaign_report.clean())
      << tools::fsck_report_json(campaign_report);
}

// WILL_FAIL pin (see tests/CMakeLists.txt): a corrupt, unrepaired tree must
// NOT check clean. If a detector regresses into reporting clean, this test
// starts passing and the WILL_FAIL registration fails the build.
TEST(FsckBreach, DISABLED_UnrepairedCorruptTreeMustFail) {
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  Rng rng(13);
  for (const tools::FindingKind kind : kCampaignKinds) {
    tools::inject_corruption(fs.target(), kind, rng);
  }
  const tools::FsckReport report = tools::run_fsck(fs.target());
  EXPECT_TRUE(report.clean()) << "corrupt tree correctly detected as dirty:\n"
                              << tools::fsck_report_json(report);
}

// --- journal-cursor replay (fs/recovery) ------------------------------------

TEST(FsckJournal, RepairAdvancesCommittedCursorOverBackfilledTail) {
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  const std::uint64_t committed_before = fs.journal->committed();
  Rng rng(5);
  ASSERT_FALSE(tools::inject_corruption(
                   fs.target(), tools::FindingKind::kJournalMissingCreate, rng)
                   .empty());
  tools::FsckOptions repair;
  repair.repair = true;
  const tools::FsckReport report = tools::run_fsck(fs.target(), repair);
  EXPECT_TRUE(has_kind(report, tools::FindingKind::kJournalMissingCreate));
  // The backfilled create landed past the old cursor and the cursor replay
  // folded it into the durable prefix.
  EXPECT_GT(report.journal_replayed, 0u);
  EXPECT_EQ(fs.journal->committed(), fs.journal->last_txid());
  EXPECT_GE(fs.journal->committed(), committed_before);
  EXPECT_TRUE(tools::run_fsck(fs.target()).clean());
}

// The create-count repair sets the counter from the finding, not from a
// second replay: by then only the missing-create backfills have added
// creates, so the finding's expectation is the repaired journal's count.
TEST(FsckJournal, CreateCountRepairMatchesAFreshReplay) {
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  Rng rng(17);
  ASSERT_FALSE(tools::inject_corruption(
                   fs.target(), tools::FindingKind::kJournalMissingCreate, rng)
                   .empty());
  ASSERT_FALSE(tools::inject_corruption(
                   fs.target(), tools::FindingKind::kCreateCountDrift, rng)
                   .empty());
  const tools::FsckReport dry = tools::run_fsck(fs.target());
  EXPECT_TRUE(has_kind(dry, tools::FindingKind::kJournalMissingCreate));
  EXPECT_TRUE(has_kind(dry, tools::FindingKind::kCreateCountDrift));

  tools::FsckOptions repair;
  repair.repair = true;
  tools::run_fsck(fs.target(), repair);
  EXPECT_EQ(fs.ns->total_created(), fs::replay_op_log(*fs.journal).creates);
  const tools::FsckReport recheck = tools::run_fsck(fs.target());
  EXPECT_TRUE(recheck.clean()) << tools::fsck_report_json(recheck);
}

// A backfilled unlink copies project, size and time from the file's first
// create record, even when a later create record mentions the file again.
TEST(FsckJournal, BackfilledUnlinkTakesTheFirstCreateRecord) {
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  auto& records = fs.journal->records_mutable();
  const auto unlink = std::find_if(
      records.begin(), records.end(),
      [](const fs::OpRecord& r) { return r.kind == fs::OpKind::kUnlink; });
  ASSERT_NE(unlink, records.end());
  const std::uint64_t file = unlink->file;
  records.erase(unlink);
  const auto create = std::find_if(
      records.begin(), records.end(), [file](const fs::OpRecord& r) {
        return r.kind == fs::OpKind::kCreate && r.file == file;
      });
  ASSERT_NE(create, records.end());
  const fs::OpRecord first = *create;
  // A second create of the journal-live file: a no-op for the replay, and
  // every field differs from the first.
  fs.journal->append(fs::OpKind::kCreate, file, first.project + 1,
                     first.size + 1, first.at + 1);

  tools::FsckOptions repair;
  repair.repair = true;
  const tools::FsckReport report = tools::run_fsck(fs.target(), repair);
  EXPECT_TRUE(has_kind(report, tools::FindingKind::kJournalMissingUnlink));
  const fs::OpRecord& backfilled = fs.journal->records().back();
  EXPECT_EQ(backfilled.kind, fs::OpKind::kUnlink);
  EXPECT_EQ(backfilled.file, file);
  EXPECT_EQ(backfilled.project, first.project);
  EXPECT_EQ(backfilled.size, first.size);
  EXPECT_EQ(backfilled.at, first.at);
  const tools::FsckReport recheck = tools::run_fsck(fs.target());
  EXPECT_TRUE(recheck.clean()) << tools::fsck_report_json(recheck);
}

TEST(FsckReportJson, EscapesControlBytesInDetailAndRepair) {
  tools::FsckReport report;
  tools::Finding f;
  f.detail = "path a\x01" "b\ttab";
  f.repaired = true;
  f.repair = "relinked\r\x1b";
  report.findings.push_back(f);
  const std::string json = tools::fsck_report_json(report);
  EXPECT_TRUE(std::none_of(json.begin(), json.end(),
                           [](char c) {
                             return static_cast<unsigned char>(c) < 0x20;
                           }))
      << json;
  EXPECT_NE(json.find("\"detail\": \"path a\\u0001b\\ttab\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"repair\": \"relinked\\r\\u001b\""), std::string::npos)
      << json;
}

}  // namespace

// Crash-free resize churn moves bytes on a file's existing stripe objects
// and must leave the OST object counters matching the stripe maps: the
// first fsck pass is clean, with no orphan- or lost-objects findings.
TEST(FsckResize, ChurnStyleResizesLeaveACleanFirstPass) {
  tools::SyntheticFs fs = tools::make_synthetic_fs();
  fs.ns->attach_oplog(fs.journal.get());
  std::vector<fs::FileId> live = fs.ns->live_ids();
  std::sort(live.begin(), live.end());
  ASSERT_FALSE(live.empty());
  Rng rng(2014);
  sim::SimTime now = 1000 * sim::kSecond;
  std::size_t resized = 0;
  for (int round = 0; round < 400; ++round) {
    now += sim::kSecond;
    const fs::FileId victim = live[rng.uniform_index(live.size())];
    // Within [1/2, 2) of a nominal 32 MiB, as the churn scenario resizes.
    const Bytes new_size = 16_MiB + rng.uniform_index(48_MiB);
    if (fs.ns->resize_file(victim, new_size, now)) ++resized;
  }
  fs.journal->commit(fs.journal->last_txid());
  EXPECT_GT(resized, 300u);
  const tools::FsckReport report = tools::run_fsck(fs.target());
  EXPECT_TRUE(report.clean()) << tools::fsck_report_json(report);
}
