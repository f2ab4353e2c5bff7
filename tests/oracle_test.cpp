// Tests for the invariant-oracle layer: suite scheduling, the flow-network
// conservation oracle (clean on honest networks, firing on seeded breaches),
// and the JSON violation rendering.
#include "sim/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/flow_network.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace {

using namespace spider::sim;

TEST(OracleSuite, SweepsOnCadenceAndAtHorizon) {
  Simulator sim;
  OracleSuite suite(sim);
  int sweeps = 0;
  suite.add(make_oracle("counter", [&](SimTime, std::vector<OracleViolation>&) {
    ++sweeps;
  }));
  suite.schedule_checks(kSecond, 5 * kSecond);
  sim.run(10 * kSecond);
  // Sweeps at 1..5 s inclusive.
  EXPECT_EQ(sweeps, 5);
  EXPECT_TRUE(suite.clean());
}

TEST(OracleSuite, RejectsNonPositiveInterval) {
  Simulator sim;
  OracleSuite suite(sim);
  EXPECT_THROW(suite.schedule_checks(0, kSecond), std::invalid_argument);
  EXPECT_THROW(suite.schedule_checks(-kSecond, kSecond),
               std::invalid_argument);
}

TEST(OracleSuite, CollectsViolationsWithTimes) {
  Simulator sim;
  OracleSuite suite(sim);
  suite.add(make_oracle("grumpy",
                        [](SimTime now, std::vector<OracleViolation>& out) {
                          if (now >= 2 * kSecond) {
                            out.push_back({"grumpy", now, "unhappy"});
                          }
                        }));
  suite.schedule_checks(kSecond, 3 * kSecond);
  sim.run(5 * kSecond);
  EXPECT_FALSE(suite.clean());
  ASSERT_EQ(suite.violations().size(), 2u);
  EXPECT_EQ(suite.violations()[0].at, 2 * kSecond);
  EXPECT_EQ(suite.violations()[1].at, 3 * kSecond);
  EXPECT_EQ(suite.fired_oracles(), std::vector<std::string>{"grumpy"});
}

TEST(OracleSuite, FiredOraclesDeduplicatesInFirstFiredOrder) {
  Simulator sim;
  OracleSuite suite(sim);
  suite.add(make_oracle("b", [](SimTime now, std::vector<OracleViolation>& out) {
    out.push_back({"b", now, "x"});
  }));
  suite.add(make_oracle("a", [](SimTime now, std::vector<OracleViolation>& out) {
    out.push_back({"a", now, "y"});
  }));
  suite.check_now();
  suite.check_now();
  const std::vector<std::string> expected{"b", "a"};
  EXPECT_EQ(suite.fired_oracles(), expected);
  EXPECT_EQ(suite.violations().size(), 4u);
}

TEST(FlowConservationOracle, CleanOnHonestNetwork) {
  Simulator sim;
  FlowNetwork net(sim);
  const ResourceId a = net.add_resource("link-a", 100.0);
  const ResourceId b = net.add_resource("link-b", 50.0);
  OracleSuite suite(sim);
  suite.add(make_flow_conservation_oracle(net));

  int completions = 0;
  for (int i = 0; i < 4; ++i) {
    FlowDesc flow;
    flow.path = {{a, 1.0}, {b, 1.0}};
    flow.size = 100.0;
    flow.on_complete = [&](FlowId, SimTime) { ++completions; };
    net.start_flow(std::move(flow));
  }
  suite.schedule_checks(kSecond, 60 * kSecond);
  sim.run(60 * kSecond);
  EXPECT_EQ(completions, 4);
  EXPECT_GT(net.total_delivered(), 399.0);
  EXPECT_TRUE(suite.clean()) << violations_json(suite.violations());
}

TEST(FlowConservationOracle, CleanAcrossCapacityEdgeWithAlignedSweeps) {
  Simulator sim;
  FlowNetwork net(sim);
  const ResourceId r = net.add_resource("link", 100.0);
  OracleSuite suite(sim);
  suite.add(make_flow_conservation_oracle(net));

  FlowDesc flow;
  flow.path = {{r, 1.0}};
  flow.size = 1000.0;
  net.start_flow(std::move(flow));
  // Sweep, then cut capacity (sweep again at the edge, as the campaign
  // engine does), then keep sweeping: no false positive.
  suite.schedule_checks(kSecond, 10 * kSecond);
  sim.schedule_at(5 * kSecond, [&] {
    net.set_capacity(r, 10.0);
    suite.check_now();
  });
  sim.run(10 * kSecond);
  EXPECT_TRUE(suite.clean()) << violations_json(suite.violations());
}

TEST(FlowConservationOracle, FiresWhenAggregateRateEscapesCapacity) {
  Simulator sim;
  FlowNetwork net(sim);
  net.add_resource("link", 10.0);
  OracleSuite suite(sim);
  suite.add(make_flow_conservation_oracle(net));

  // A pathless flow with a finite cap models traffic that crosses no
  // accounted resource: its rate escapes every capacity bound.
  FlowDesc rogue;
  rogue.size = 1e9;
  rogue.rate_cap = 500.0;
  net.start_flow(std::move(rogue));

  suite.check_now();
  ASSERT_FALSE(suite.clean());
  EXPECT_EQ(suite.violations()[0].oracle, "flow-conservation");
  EXPECT_NE(suite.violations()[0].detail.find("aggregate rate"),
            std::string::npos)
      << suite.violations()[0].detail;
}

TEST(ViolationsJson, RendersStableShape) {
  std::vector<OracleViolation> violations;
  EXPECT_EQ(violations_json(violations), "[]");
  violations.push_back({"purge-age", 2 * kSecond, "deleted \"young\" file"});
  const std::string json = violations_json(violations);
  EXPECT_NE(json.find("\"oracle\": \"purge-age\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"at_s\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"young\\\""), std::string::npos) << json;
}

TEST(ViolationsJson, EscapesEveryControlByte) {
  // Oracle details quote resource and file names; a raw control byte in one
  // used to pass through and make the verdict line invalid JSON.
  const std::vector<OracleViolation> violations{
      {"purge-age", kSecond, "name a\x01" "b\r\x1b[0m\x1f end"}};
  const std::string json = violations_json(violations);
  EXPECT_TRUE(std::none_of(json.begin(), json.end(),
                           [](char c) {
                             return static_cast<unsigned char>(c) < 0x20;
                           }))
      << json;
  EXPECT_NE(json.find("a\\u0001b\\r\\u001b[0m\\u001f end"), std::string::npos)
      << json;
}

}  // namespace
