// Oracle for the one-pass journal replay (fs/recovery replay_op_log).
//
// reference_replay_op_log is the std::map replay replay_op_log ran before
// the flat per-file table, joined with the two lookups spiderfsck ran
// beside it: the create_by_id map (first create record of each file) and
// the ghost-unlink scan (unlinks of files no create record mentions). It
// is the ground truth for the claim that the flat table changes no field
// of OpLogSummary: every comparison below is exact.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "fs/fs_namespace.hpp"
#include "fs/journal.hpp"
#include "fs/recovery.hpp"

namespace spider::fs {
namespace {

OpLogSummary reference_replay_op_log(const OpLog& log) {
  OpLogSummary out;
  std::map<std::uint64_t, Bytes> live;
  std::map<std::uint64_t, std::size_t> create_by_id;
  const std::vector<OpRecord>& records = log.records();
  for (std::size_t pos = 0; pos < records.size(); ++pos) {
    const OpRecord& rec = records[pos];
    switch (rec.kind) {
      case OpKind::kCreate:
        ++out.creates;
        live.emplace(rec.file, rec.size);
        create_by_id.emplace(rec.file, pos);
        break;
      case OpKind::kUnlink:
        ++out.unlinks;
        live.erase(rec.file);
        break;
      case OpKind::kSetattr:
        ++out.setattrs;
        break;
      case OpKind::kResize: {
        ++out.resizes;
        const auto it = live.find(rec.file);
        if (it != live.end()) it->second = rec.size;
        break;
      }
      case OpKind::kSetProject:
        ++out.setprojects;
        break;
    }
  }
  for (std::size_t pos = 0; pos < records.size(); ++pos) {
    if (records[pos].kind != OpKind::kUnlink) continue;
    if (create_by_id.find(records[pos].file) != create_by_id.end()) continue;
    out.ghost_unlinks.push_back(pos);
  }
  for (const auto& [file, size] : live) {
    out.live.push_back(file);
    out.live_first_create.push_back(create_by_id.at(file));
    out.live_bytes += size;
  }
  out.last_txid = log.last_txid();
  return out;
}

/// Compare every OpLogSummary field; returns the first mismatch or "".
std::string summary_diff(const OpLogSummary& got, const OpLogSummary& want) {
  if (got.creates != want.creates) return "creates";
  if (got.unlinks != want.unlinks) return "unlinks";
  if (got.setattrs != want.setattrs) return "setattrs";
  if (got.resizes != want.resizes) return "resizes";
  if (got.setprojects != want.setprojects) return "setprojects";
  if (got.live != want.live) return "live";
  if (got.live_first_create != want.live_first_create) {
    return "live_first_create";
  }
  if (got.ghost_unlinks != want.ghost_unlinks) return "ghost_unlinks";
  if (got.live_bytes != want.live_bytes) return "live_bytes";
  if (got.last_txid != want.last_txid) return "last_txid";
  return "";
}

/// One adversarial log: random kinds over a small id pool, so duplicate
/// creates, unlinks before creates, re-creates and resizes of dead or
/// unknown files all occur; then interior records erased through
/// records_mutable() and, sometimes, a crash-truncated tail.
OpLog adversarial_log(Rng& rng) {
  // Pools of a few ids stress the per-file state machine; pools of
  // hundreds push the table through several growths.
  const std::size_t pool_size =
      1 + rng.uniform_index(rng.chance(0.8) ? 8 : 400);
  std::vector<std::uint64_t> pool;
  for (std::size_t i = 0; i < pool_size; ++i) {
    // Namespace-shaped ids, plus raw 64-bit values (0 and all-ones too).
    switch (rng.uniform_index(4)) {
      case 0:
        pool.push_back(rng());
        break;
      case 1:
        pool.push_back(rng.chance(0.5) ? 0 : ~std::uint64_t{0});
        break;
      default:
        pool.push_back(file_id_for_slot(
            static_cast<std::uint32_t>(rng.uniform_index(3)),
            rng.uniform_index(4 * pool_size)));
        break;
    }
  }
  const std::size_t ops = rng.uniform_index(8 * pool_size + 16);
  OpLog log;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t r = rng.uniform_index(100);
    const OpKind kind = r < 35   ? OpKind::kCreate
                        : r < 60 ? OpKind::kUnlink
                        : r < 70 ? OpKind::kSetattr
                        : r < 88 ? OpKind::kResize
                                 : OpKind::kSetProject;
    log.append(kind, pool[rng.uniform_index(pool.size())],
               static_cast<std::uint32_t>(rng.uniform_index(5)),
               rng.uniform_index(1u << 20), static_cast<std::int64_t>(i));
  }
  auto& records = log.records_mutable();
  const std::size_t erasures = records.empty() ? 0 : rng.uniform_index(4);
  for (std::size_t e = 0; e < erasures && !records.empty(); ++e) {
    records.erase(records.begin() + static_cast<std::ptrdiff_t>(
                                        rng.uniform_index(records.size())));
  }
  if (rng.chance(0.1)) {
    log.truncate_to(rng.uniform_index(log.last_txid() + 1));
  }
  return log;
}

/// Some file is created, unlinked and created again.
bool has_revival(const OpLog& log) {
  std::map<std::uint64_t, bool> unlinked_after_create;
  for (const OpRecord& rec : log.records()) {
    if (rec.kind == OpKind::kCreate) {
      const auto it = unlinked_after_create.find(rec.file);
      if (it != unlinked_after_create.end() && it->second) return true;
      unlinked_after_create.emplace(rec.file, false);
    } else if (rec.kind == OpKind::kUnlink) {
      const auto it = unlinked_after_create.find(rec.file);
      if (it != unlinked_after_create.end()) it->second = true;
    }
  }
  return false;
}

TEST(ReplayOracle, FlatTableMatchesMapReplayOnAdversarialLogs) {
  Rng rng(0x0f5cu);
  std::size_t grew = 0;
  std::size_t ghosts = 0;
  std::size_t revived = 0;
  for (int i = 0; i < 12000; ++i) {
    const OpLog log = adversarial_log(rng);
    const OpLogSummary want = reference_replay_op_log(log);
    const std::string diff = summary_diff(replay_op_log(log), want);
    ASSERT_EQ(diff, "") << "log " << i << " of " << log.size() << " records";
    if (want.live.size() > 32) ++grew;
    if (!want.ghost_unlinks.empty()) ++ghosts;
    if (has_revival(log)) ++revived;
  }
  // The generator really reaches the cases it claims to.
  EXPECT_GT(grew, 100u);
  EXPECT_GT(ghosts, 1000u);
  EXPECT_GT(revived, 1000u);
}

// The per-file state machine, case by case.
TEST(ReplayOracle, PerFileStateMachine) {
  OpLog log;
  log.append(OpKind::kUnlink, 7, 0, 0, 0);        // 0: unlink before create
  log.append(OpKind::kCreate, 5, 1, 100, 1);      // 1: first create of 5
  log.append(OpKind::kCreate, 5, 2, 999, 2);      // 2: create while live
  log.append(OpKind::kResize, 9, 0, 50, 3);       // 3: resize of unknown
  log.append(OpKind::kCreate, 7, 0, 10, 4);       // 4: 7 is now mentioned
  log.append(OpKind::kUnlink, 7, 0, 10, 5);       // 5: 7 dies
  log.append(OpKind::kResize, 7, 0, 70, 6);       // 6: resize of dead 7
  log.append(OpKind::kCreate, 7, 0, 20, 7);       // 7: 7 revived
  log.append(OpKind::kSetattr, 5, 1, 100, 8);     // 8: no state effect
  log.append(OpKind::kSetProject, 5, 3, 100, 9);  // 9: no state effect
  log.append(OpKind::kResize, 5, 1, 300, 10);     // 10: resize of live 5
  log.append(OpKind::kUnlink, 11, 0, 0, 11);      // 11: ghost
  const OpLogSummary s = replay_op_log(log);
  EXPECT_EQ(summary_diff(s, reference_replay_op_log(log)), "");
  EXPECT_EQ(s.creates, 4u);
  EXPECT_EQ(s.unlinks, 3u);
  EXPECT_EQ(s.setattrs, 1u);
  EXPECT_EQ(s.resizes, 3u);
  EXPECT_EQ(s.setprojects, 1u);
  EXPECT_EQ(s.live, (std::vector<std::uint64_t>{5, 7}));
  EXPECT_EQ(s.live_first_create, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(s.live_bytes, 300u + 20u);
  EXPECT_EQ(s.ghost_unlinks, (std::vector<std::size_t>{11}));
  EXPECT_EQ(s.last_txid, 12u);

  // Erasing the only create of 7 makes both of its unlinks ghosts.
  auto& records = log.records_mutable();
  records.erase(records.begin() + 7);
  records.erase(records.begin() + 4);
  const OpLogSummary erased = replay_op_log(log);
  EXPECT_EQ(summary_diff(erased, reference_replay_op_log(log)), "");
  EXPECT_EQ(erased.live, (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(erased.ghost_unlinks, (std::vector<std::size_t>{0, 4, 9}));
}

}  // namespace
}  // namespace spider::fs
