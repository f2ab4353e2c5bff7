// Bit-identity oracle for the sparse max-min core (sim/resource).
//
// reference_solve_max_min is a verbatim copy of the dense solver the
// sparse core replaced; only its name differs. It sweeps every resource in
// every water-filling round, so it is the ground truth for the claim that
// visiting only the touched resources changes no bits: every comparison
// below is on the raw IEEE-754 representation, never within a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/flow_network.hpp"
#include "sim/replay.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace spider::sim {
namespace {

SolveResult reference_solve_max_min(std::span<const double> capacity,
                                    std::span<const SolverFlow> flows) {
  const std::size_t nr = capacity.size();
  const std::size_t nf = flows.size();
  SolveResult out;
  out.rate.assign(nf, 0.0);
  out.utilization.assign(nr, 0.0);
  if (nf == 0) return out;

  std::vector<double> residual(capacity.begin(), capacity.end());
  std::vector<double> active_cost(nr, 0.0);
  std::vector<char> frozen(nf, 0);
  std::vector<char> saturated(nr, 0);

  // A resource counts as saturated when its residual falls below this
  // fraction of original capacity (or an absolute floor for zero-capacity
  // resources).
  auto sat_eps = [&](std::size_t r) {
    return std::max(1e-12, 1e-9 * capacity[r]);
  };

  std::size_t unfrozen = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    if (flows[f].path.empty()) {
      // Pathless flow: rate is just its cap (0 if unbounded, to stay finite).
      out.rate[f] = std::isinf(flows[f].rate_cap) ? 0.0 : flows[f].rate_cap;
      frozen[f] = 1;
      continue;
    }
    ++unfrozen;
    for (const auto& hop : flows[f].path) {
      assert(hop.resource < nr);
      active_cost[hop.resource] += hop.cost;
    }
  }

  // Immediately saturated resources (zero capacity) pin their flows.
  for (std::size_t r = 0; r < nr; ++r) {
    if (capacity[r] <= sat_eps(r) && active_cost[r] > 0.0) saturated[r] = 1;
  }

  double level = 0.0;  // common rate of all unfrozen flows
  while (unfrozen > 0) {
    // Freeze flows crossing a saturated resource at the current level.
    bool froze_any = false;
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      bool hit = false;
      for (const auto& hop : flows[f].path) {
        if (saturated[hop.resource] && hop.cost > 0.0) {
          hit = true;
          break;
        }
      }
      if (hit) {
        out.rate[f] = std::min(level, flows[f].rate_cap);
        frozen[f] = 1;
        --unfrozen;
        froze_any = true;
        for (const auto& hop : flows[f].path) active_cost[hop.resource] -= hop.cost;
      }
    }
    if (unfrozen == 0) break;

    // Largest uniform rate increment before a resource saturates or a flow
    // hits its cap.
    double delta = kUnbounded;
    for (std::size_t r = 0; r < nr; ++r) {
      if (saturated[r] || active_cost[r] <= 1e-15) continue;
      delta = std::min(delta, residual[r] / active_cost[r]);
    }
    double min_cap = kUnbounded;
    for (std::size_t f = 0; f < nf; ++f) {
      if (!frozen[f]) min_cap = std::min(min_cap, flows[f].rate_cap);
    }
    const double cap_delta = min_cap - level;
    const bool cap_binds = cap_delta <= delta;
    delta = std::min(delta, cap_delta);

    if (std::isinf(delta)) {
      // Remaining flows consume nothing and have no cap; pin at level.
      for (std::size_t f = 0; f < nf; ++f) {
        if (!frozen[f]) {
          out.rate[f] = level;
          frozen[f] = 1;
          --unfrozen;
        }
      }
      break;
    }

    if (delta > 0.0) {
      level += delta;
      for (std::size_t r = 0; r < nr; ++r) {
        if (active_cost[r] > 0.0) residual[r] -= active_cost[r] * delta;
      }
    }

    // Mark newly saturated resources.
    for (std::size_t r = 0; r < nr; ++r) {
      if (!saturated[r] && active_cost[r] > 0.0 && residual[r] <= sat_eps(r)) {
        saturated[r] = 1;
        froze_any = true;  // the next loop pass will freeze its flows
      }
    }

    // Freeze cap-limited flows.
    if (cap_binds) {
      for (std::size_t f = 0; f < nf; ++f) {
        if (frozen[f] || flows[f].rate_cap > level + 1e-12 * (1.0 + level)) continue;
        out.rate[f] = flows[f].rate_cap;
        frozen[f] = 1;
        --unfrozen;
        froze_any = true;
        for (const auto& hop : flows[f].path) active_cost[hop.resource] -= hop.cost;
      }
    }

    if (!froze_any && delta <= 0.0) {
      // Defensive: no progress possible (degenerate numerics); pin the rest.
      for (std::size_t f = 0; f < nf; ++f) {
        if (!frozen[f]) {
          out.rate[f] = std::min(level, flows[f].rate_cap);
          frozen[f] = 1;
          --unfrozen;
        }
      }
      break;
    }
  }

  // Utilization report: one pass over all flow hops.
  std::vector<double> used(nr, 0.0);
  for (std::size_t f = 0; f < nf; ++f) {
    for (const auto& hop : flows[f].path) {
      used[hop.resource] += out.rate[f] * hop.cost;
    }
  }
  for (std::size_t r = 0; r < nr; ++r) {
    out.utilization[r] = capacity[r] > 0.0 ? std::min(1.0, used[r] / capacity[r]) : 0.0;
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A solver input that owns its paths.
struct Problem {
  std::vector<double> capacity;
  std::vector<std::vector<PathHop>> paths;
  std::vector<double> caps;

  std::vector<SolverFlow> flows() const {
    std::vector<SolverFlow> out;
    for (std::size_t f = 0; f < paths.size(); ++f) out.push_back({paths[f], caps[f]});
    return out;
  }
  /// Resources on the paths in first-seen order: the core's touched set.
  std::vector<ResourceId> touched() const {
    std::vector<ResourceId> out;
    std::set<ResourceId> seen;
    for (const auto& path : paths) {
      for (const PathHop& hop : path) {
        if (seen.insert(hop.resource).second) out.push_back(hop.resource);
      }
    }
    return out;
  }
};

/// Solve `p` with the reference, the dense wrapper, and the sparse core on
/// the shared workspace `ws`; all three must agree bit for bit.
void expect_bit_identical(const Problem& p, MaxMinWorkspace& ws) {
  const std::vector<SolverFlow> flows = p.flows();
  const SolveResult ref = reference_solve_max_min(p.capacity, flows);
  const SolveResult dense = solve_max_min(p.capacity, flows);
  solve_max_min(p.capacity, flows, ws);

  ASSERT_EQ(dense.rate.size(), ref.rate.size());
  ASSERT_EQ(ws.rate.size(), ref.rate.size());
  for (std::size_t f = 0; f < ref.rate.size(); ++f) {
    EXPECT_EQ(bits(dense.rate[f]), bits(ref.rate[f])) << "dense rate " << f;
    EXPECT_EQ(bits(ws.rate[f]), bits(ref.rate[f])) << "sparse rate " << f;
  }
  ASSERT_EQ(dense.utilization.size(), ref.utilization.size());
  ASSERT_GE(ws.utilization.size(), ref.utilization.size());
  for (std::size_t r = 0; r < ref.utilization.size(); ++r) {
    EXPECT_EQ(bits(dense.utilization[r]), bits(ref.utilization[r]))
        << "dense utilization " << r;
    EXPECT_EQ(bits(ws.utilization[r]), bits(ref.utilization[r]))
        << "sparse utilization " << r;
  }
  // Entries past this capacity vector (left by a larger earlier solve)
  // must have been returned to zero.
  for (std::size_t r = ref.utilization.size(); r < ws.utilization.size(); ++r) {
    EXPECT_EQ(bits(ws.utilization[r]), bits(0.0)) << "stale utilization " << r;
  }
  EXPECT_EQ(ws.touched, p.touched());
}

/// Random problem over `nr` resources. Capacities and costs are inexact so
/// any change in summation order would show; the knobs switch on the edge
/// cases the sparse bookkeeping must get right.
struct Knobs {
  double zero_capacity = 0.0;  ///< chance a resource has capacity 0
  double zero_cost = 0.0;      ///< chance a hop costs nothing
  double pathless = 0.0;       ///< chance a flow has no path (finite cap)
  double repeat = 0.0;         ///< chance a hop repeats an earlier hop's resource
  double capped = 0.5;         ///< chance a flow has a finite rate cap
};

Problem random_problem(Rng& rng, std::size_t nr, std::size_t nf, const Knobs& k) {
  Problem p;
  for (std::size_t r = 0; r < nr; ++r) {
    p.capacity.push_back(rng.chance(k.zero_capacity) ? 0.0
                                                     : rng.uniform(10.0, 1000.0) / 3.0);
  }
  for (std::size_t f = 0; f < nf; ++f) {
    std::vector<PathHop> path;
    if (!rng.chance(k.pathless)) {
      const std::size_t hops = 1 + rng.uniform_index(5);
      for (std::size_t h = 0; h < hops; ++h) {
        const ResourceId r =
            !path.empty() && rng.chance(k.repeat)
                ? path[rng.uniform_index(path.size())].resource
                : static_cast<ResourceId>(rng.uniform_index(nr));
        path.push_back({r, rng.chance(k.zero_cost) ? 0.0 : rng.uniform(0.5, 4.5)});
      }
    }
    const bool capped = path.empty() || rng.chance(k.capped);
    p.caps.push_back(capped ? rng.uniform(1.0, 300.0) / 7.0 : kUnbounded);
    p.paths.push_back(std::move(path));
  }
  return p;
}

void sweep(std::uint64_t seed, const Knobs& k) {
  Rng rng(seed);
  MaxMinWorkspace ws;  // shared across every problem in the sweep
  for (int i = 0; i < 200; ++i) {
    const std::size_t nr = 1 + rng.uniform_index(i % 2 ? 40 : 2000);
    const std::size_t nf = rng.uniform_index(60);
    SCOPED_TRACE(testing::Message() << "problem " << i << " nr=" << nr << " nf=" << nf);
    expect_bit_identical(random_problem(rng, nr, nf, k), ws);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SolverOracle, RandomProblemsMatchBitForBit) { sweep(1, Knobs{}); }

TEST(SolverOracle, ZeroCapacityResources) {
  sweep(2, Knobs{.zero_capacity = 0.2});
}

TEST(SolverOracle, ZeroCostHops) { sweep(3, Knobs{.zero_cost = 0.3}); }

TEST(SolverOracle, PathlessCappedFlows) { sweep(4, Knobs{.pathless = 0.25}); }

TEST(SolverOracle, ResourceRepeatedWithinOnePath) {
  sweep(5, Knobs{.repeat = 0.4});
}

TEST(SolverOracle, CapBindingRounds) { sweep(6, Knobs{.capped = 0.95}); }

TEST(SolverOracle, AllEdgeCasesAtOnce) {
  sweep(7, Knobs{.zero_capacity = 0.1, .zero_cost = 0.1, .pathless = 0.1,
                 .repeat = 0.2, .capped = 0.7});
}

TEST(SolverOracle, HandPickedEdgeCases) {
  MaxMinWorkspace ws;
  // Zero-capacity hop with positive cost pins its flow; a zero-cost hop on
  // a dead resource does not.
  Problem p{{0.0, 90.0, 0.0},
            {{{0, 1.0}, {1, 1.0}}, {{2, 0.0}, {1, 1.0}}, {}},
            {kUnbounded, kUnbounded, 42.0}};
  expect_bit_identical(p, ws);
  EXPECT_EQ(ws.rate[0], 0.0);
  EXPECT_EQ(ws.rate[2], 42.0);
  // One resource crossed twice by the same flow counts both hops.
  p = Problem{{100.0 / 3.0}, {{{0, 1.0}, {0, 2.0}}}, {kUnbounded}};
  expect_bit_identical(p, ws);
  // Every flow cap-bound below the resource's share: several cap rounds.
  p = Problem{{1000.0}, {{{0, 1.0}}, {{0, 1.0}}, {{0, 1.0}}}, {10.0 / 3.0, 20.0 / 3.0, kUnbounded}};
  expect_bit_identical(p, ws);
  // No flows at all after a non-empty solve.
  p = Problem{{5.0, 6.0}, {}, {}};
  expect_bit_identical(p, ws);
  EXPECT_TRUE(ws.touched.empty());
}

TEST(SolverOracle, WorkspaceGrowsWithResourcesAddedLater) {
  MaxMinWorkspace ws;
  Rng rng(8);
  Problem small = random_problem(rng, 4, 6, Knobs{});
  expect_bit_identical(small, ws);
  // Resources added after the first solve: the same problem plus new,
  // high-numbered resources that new flows cross.
  Problem grown = small;
  for (int i = 0; i < 5000; ++i) grown.capacity.push_back(rng.uniform(1.0, 50.0));
  grown.paths.push_back({{4999, 1.0}, {2, 1.0}});
  grown.paths.push_back({{5003, 2.0}});
  grown.caps.push_back(kUnbounded);
  grown.caps.push_back(kUnbounded);
  expect_bit_identical(grown, ws);
  // And back to the small problem on the now-larger workspace.
  expect_bit_identical(small, ws);
}

// --- FlowNetwork level ------------------------------------------------------

/// Site stamped on the scenario's own events, so the pinned hash does
/// not depend on where this file's lines fall.
constexpr std::uint64_t kScenarioSite = 0x5ce7a210u;

struct ScenarioOutcome {
  std::uint64_t hash = 0;
  std::size_t events = 0;
  std::uint64_t idle_completions = 0;
};

/// Seeded churn on a center-scale network: flows arrive (some with path
/// latency), active ones are cancelled, and resources change capacity (some
/// drop to zero and come back). Telemetry is folded into the recorder at
/// checkpoints and at the end. Along the way, every resource on no live
/// flow's path must read a load of exactly 0.0.
ScenarioOutcome run_center_scenario(std::uint64_t seed) {
  constexpr std::size_t kResources = 1233;
  Simulator sim;
  FlowNetwork net(sim);
  ReplayRecorder rec;
  rec.attach(sim);
  Rng rng(seed);
  for (std::size_t r = 0; r < kResources; ++r) {
    net.add_resource("r", rng.uniform(50.0, 5000.0) / 3.0);
  }

  std::map<FlowId, std::vector<PathHop>> live;  // started, not yet done
  std::vector<FlowId> cancellable;              // started without latency
  auto check_idle_loads = [&] {
    std::vector<char> busy(kResources, 0);
    for (const auto& [id, path] : live) {
      for (const PathHop& hop : path) busy[hop.resource] = 1;
    }
    for (std::size_t r = 0; r < kResources; ++r) {
      if (!busy[r]) {
        EXPECT_EQ(bits(net.stats(static_cast<ResourceId>(r)).current_load), bits(0.0))
            << "resource " << r << " at t=" << sim.now();
      }
    }
  };

  SimTime t = 0;
  for (int op = 0; op < 2000; ++op) {
    t += static_cast<SimTime>(rng.uniform(0.0, 0.02) * static_cast<double>(kSecond));
    const std::uint64_t roll = rng.uniform_index(10);
    if (roll < 6) {
      FlowDesc d;
      const std::size_t hops = 2 + rng.uniform_index(5);
      for (std::size_t h = 0; h < hops; ++h) {
        d.path.push_back({static_cast<ResourceId>(rng.uniform_index(kResources)),
                          rng.chance(0.2) ? 4.5 : 1.0});
      }
      d.size = rng.uniform(1.0, 100.0) / 3.0;
      if (rng.chance(0.4)) d.rate_cap = rng.uniform(50.0, 500.0) / 7.0;
      if (rng.chance(0.3)) d.latency = 1 + static_cast<SimTime>(rng.uniform_index(5'000'000));
      sim.schedule_sited(t, [&, d = std::move(d)]() mutable {
        const bool now_active = d.latency == 0;
        std::vector<PathHop> path = d.path;
        d.on_complete = [&live](FlowId id, SimTime) { live.erase(id); };
        const FlowId id = net.start_flow(std::move(d));
        live.emplace(id, std::move(path));
        if (now_active) cancellable.push_back(id);
      }, kScenarioSite);
    } else if (roll < 8) {
      const std::uint64_t pick = rng();
      sim.schedule_sited(t, [&, pick] {
        if (cancellable.empty()) return;
        const std::size_t i = pick % cancellable.size();
        const FlowId id = cancellable[i];
        cancellable[i] = cancellable.back();
        cancellable.pop_back();
        net.cancel_flow(id);  // a no-op if it already completed
        live.erase(id);
      }, kScenarioSite);
    } else {
      const auto r = static_cast<ResourceId>(rng.uniform_index(kResources));
      const double capacity = rng.chance(0.1) ? 0.0 : rng.uniform(50.0, 5000.0) / 3.0;
      sim.schedule_sited(t, [&, r, capacity] { net.set_capacity(r, capacity); },
                         kScenarioSite);
      if (capacity == 0.0) {  // a failover window: back 200 ms later
        sim.schedule_sited(t + kSecond / 5, [&, r] { net.set_capacity(r, 1000.0); },
                           kScenarioSite);
      }
    }
    if (op % 400 == 399) {
      sim.schedule_sited(t, [&] {
        check_idle_loads();
        rec.record_resource_stats(net);
      }, kScenarioSite);
    }
  }
  sim.run();
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_TRUE(live.empty());
  check_idle_loads();
  rec.record_resource_stats(net);
  return {rec.combined_hash(), rec.events_recorded(), net.idle_completions()};
}

// First captured at the commit before the sparse core, from the dense solver
// and the dense telemetry sweeps it replaced (3623 events, 0x3d6d6d3b6817d8ac).
// Re-pinned when completions moved to the ceiling nanosecond: the five
// completion events that finished no flow are gone, so later ids shift.
constexpr std::size_t kPinnedEvents = 3618;
constexpr std::uint64_t kPinnedHash = 0xad695745233403eaull;

TEST(FlowNetworkOracle, CenterScenarioHashIsPinned) {
  const ScenarioOutcome out = run_center_scenario(2014);
  EXPECT_EQ(out.events, kPinnedEvents);
  EXPECT_EQ(out.hash, kPinnedHash) << std::hex << out.hash;
}

TEST(FlowNetworkOracle, CenterScenarioHasNoIdleCompletions) {
  // Every completion event finishes at least one flow: none fires at a
  // truncated instant and has to re-solve an unchanged flow set.
  EXPECT_EQ(run_center_scenario(2014).idle_completions, 0u);
}

}  // namespace
}  // namespace spider::sim
