// Capacitated resources, flow paths, and the max-min fair-share solver.
//
// spiderpfs models the I/O stack (Lesson 12: "build the performance profile
// for each layer") as a network of capacitated resources: disks, RAID
// groups, controllers, OSS nodes, InfiniBand links, LNET routers, torus
// links, and client injection ports. A *flow* is a transfer that traverses
// an ordered list of resources; hop *cost* expresses efficiency — e.g. a
// random-I/O flow consumes 4-5x disk capacity per delivered byte (the paper:
// a single disk achieves 20-25% of peak under 1 MB random I/O), and a
// small-transfer flow is additionally limited by a per-flow rate cap from
// RPC overhead.
//
// Rates are assigned by progressive (water-filling) max-min fairness with
// per-hop costs and per-flow caps, the standard flow-level model of
// bandwidth sharing. The same solver backs both the static
// SteadyStateSolver and the dynamic FlowNetwork.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace spider::sim {

using ResourceId = std::uint32_t;

inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// One hop of a flow path: the resource it crosses and how many units of
/// that resource's capacity one delivered unit consumes (cost >= 0).
struct PathHop {
  ResourceId resource;
  double cost = 1.0;
};

/// Solver view of one flow.
struct SolverFlow {
  std::span<const PathHop> path;
  /// The flow's own maximum rate (client-side limit); kUnbounded if none.
  double rate_cap = kUnbounded;
};

/// Result of one max-min solve.
struct SolveResult {
  std::vector<double> rate;         ///< per flow, units/sec
  std::vector<double> utilization;  ///< per resource, in [0, 1]
};

/// Reusable working state and output of the sparse max-min core. The arrays
/// indexed by ResourceId grow to the largest capacity vector seen and are
/// only read or written at `touched` entries, so a solve costs O(flow hops
/// x rounds) however many resources exist. Reusing one workspace across
/// solves makes them allocation-free once the buffers have grown.
struct MaxMinWorkspace {
  /// Output: per flow, units/sec.
  std::vector<double> rate;
  /// Output: the resources on the flows' paths, in first-seen order (flow
  /// order, then hop order). Valid until the next solve.
  std::vector<ResourceId> touched;
  /// Output, by ResourceId: utilization in [0, 1]. Meaningful at `touched`
  /// entries; zero everywhere else.
  std::vector<double> utilization;

  // Working arrays by ResourceId. residual is set when a resource joins the
  // touched set; the rest are zero outside it, and the next solve returns
  // the previous touched entries to zero before it starts.
  std::vector<double> residual;
  std::vector<double> active_cost;
  std::vector<char> saturated;
  std::vector<char> seen;
  // Working array by flow.
  std::vector<char> frozen;
};

/// Progressive-filling max-min allocation.
///
/// capacity[r] is resource r's capacity in units/sec; a zero-capacity
/// resource pins every flow crossing it (with positive cost) to rate 0.
/// Flows with empty paths get min(rate_cap, 0 if cap unbounded) — callers
/// should give pathless flows a finite cap.
///
/// The sparse core: results land in `ws` (see MaxMinWorkspace). Every
/// per-resource sum accumulates in flow order and every per-resource test
/// reads only that resource, so the result is bit-identical to a sweep over
/// all of `capacity`.
void solve_max_min(std::span<const double> capacity,
                   std::span<const SolverFlow> flows, MaxMinWorkspace& ws);

/// Dense entry point: the same core on a private workspace, with
/// utilization scattered into a capacity-sized vector.
SolveResult solve_max_min(std::span<const double> capacity,
                          std::span<const SolverFlow> flows);

}  // namespace spider::sim
