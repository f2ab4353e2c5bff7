// Changelog churn runner: the verdict is a function of the configuration,
// never of how many lanes the sharded engine ran on.
//
// tools::run_churn drives core::ChurnScenario on ShardedSimulator with the
// changelog consumers, periodic purge, the consistency oracle and (here)
// a log-rewind crash. Lanes may only change the wall clock, so a serial
// run and an auto-lane run must agree on every count the verdict reports.
#include <gtest/gtest.h>

#include "tools/faultcli/churn.hpp"

namespace {

using namespace spider;

TEST(Churn, VerdictIndependentOfWorkerCount) {
  tools::ChurnRunConfig cfg;
  cfg.crash = true;
  cfg.workers = 1;
  const tools::ChurnVerdict serial = tools::run_churn(cfg);
  cfg.workers = 0;
  const tools::ChurnVerdict lanes = tools::run_churn(cfg);

  EXPECT_TRUE(serial.ok);
  EXPECT_TRUE(serial.crash_detected);
  EXPECT_EQ(serial.ok, lanes.ok);
  EXPECT_EQ(serial.crash_detected, lanes.crash_detected);
  EXPECT_EQ(serial.events, lanes.events);
  EXPECT_EQ(serial.epochs, lanes.epochs);
  EXPECT_EQ(serial.records_applied, lanes.records_applied);
  EXPECT_EQ(serial.logical_files, lanes.logical_files);
  EXPECT_EQ(serial.query_walks, lanes.query_walks);
  EXPECT_EQ(serial.purged, lanes.purged);

  const core::ChurnTotals& a = serial.totals;
  const core::ChurnTotals& b = lanes.totals;
  EXPECT_EQ(a.creates, b.creates);
  EXPECT_EQ(a.unlinks, b.unlinks);
  EXPECT_EQ(a.touches, b.touches);
  EXPECT_EQ(a.resizes, b.resizes);
  EXPECT_EQ(a.setprojects, b.setprojects);
  EXPECT_EQ(a.refused, b.refused);
  EXPECT_GT(a.creates, 0u);
}

}  // namespace
