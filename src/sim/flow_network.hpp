// Dynamic flow network coupled to the discrete-event simulator.
//
// Flows arrive and depart over simulated time; on every change the max-min
// allocation is re-solved and the next completion is scheduled. This gives
// exact flow-level dynamics with O(completions) events, which is what makes
// month-long purge simulations and checkpoint-interference studies cheap.
//
// Each resource additionally records telemetry (cumulative units served,
// busy-time integral, current load) feeding the monitoring tools (DDN tool,
// health checks) and libPIO's load-aware placement.
//
// Cost is O(touched), not O(resources): a re-solve and the telemetry walks
// visit only the resources on live flows' paths (the *touched set* of the
// last resolve), so a center of thousands of resources with a handful of
// active flows pays for the handful. Untouched resources would only ever
// receive +0.0 served and a zero load, so skipping them changes no bits.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace spider::sim {

using FlowId = std::uint64_t;

/// Telemetry accumulated per resource while the simulation runs.
struct ResourceStats {
  double served = 0.0;         ///< cumulative units delivered through this resource
  double busy_integral = 0.0;  ///< integral of utilization over seconds
  double current_load = 0.0;   ///< instantaneous utilization in [0, 1]
  std::uint64_t flows_seen = 0;
};

/// Description of a flow to start.
struct FlowDesc {
  std::vector<PathHop> path;
  double size = 0.0;            ///< total units to transfer (> 0)
  double rate_cap = kUnbounded; ///< flow's own rate limit
  SimTime latency = 0;          ///< fixed path latency before transfer begins
  /// Called when the last byte is delivered.
  std::function<void(FlowId, SimTime)> on_complete;
};

class FlowNetwork {
 public:
  explicit FlowNetwork(Simulator& sim) : sim_(sim) {}

  ResourceId add_resource(std::string name, double capacity);
  /// Change capacity mid-simulation (controller failover, rebuild windows,
  /// upgrades). Re-solves immediately.
  void set_capacity(ResourceId id, double capacity);
  double capacity(ResourceId id) const { return capacity_.at(id); }
  const std::string& name(ResourceId id) const { return names_.at(id); }
  const ResourceStats& stats(ResourceId id) const { return stats_.at(id); }
  std::size_t resources() const { return capacity_.size(); }

  /// Start a flow now; completion fires after latency + transfer.
  FlowId start_flow(FlowDesc desc);
  /// Abort a flow (no completion callback), including one still in its
  /// latency window, which then never activates. No-op for unknown ids.
  void cancel_flow(FlowId id);

  std::size_t active_flows() const { return flows_.size(); }
  /// Rate of an active flow in units/sec (0 if unknown/not yet active).
  double flow_rate(FlowId id) const;
  /// Sum of active flow rates.
  double aggregate_rate() const { return aggregate_rate_; }
  /// Sum of completed flow sizes.
  double total_delivered() const { return total_delivered_; }

  /// Solver counters for the layer profile: plain deterministic counts.
  /// solves() is the number of max-min solves so far; solved_flows() and
  /// solved_resources() sum the flows and the touched resources per solve.
  std::uint64_t solves() const { return solves_; }
  std::uint64_t solved_flows() const { return solved_flows_; }
  std::uint64_t solved_resources() const { return solved_resources_; }
  /// Completion events that finished no flow. Each one is a wasted event
  /// plus a re-solve of an unchanged flow set; the ceiling-ns schedule
  /// (see completion_delay) keeps it at 0.
  std::uint64_t idle_completions() const { return idle_completions_; }

 private:
  struct ActiveFlow {
    std::vector<PathHop> path;
    double size;
    double remaining;
    double rate_cap;
    double rate = 0.0;
    std::function<void(FlowId, SimTime)> on_complete;
  };

  /// Add a flow whose latency has elapsed and re-solve.
  void activate(FlowId id, FlowDesc desc);
  /// Integrate progress of all active flows since last_update_. Telemetry
  /// is folded in over the last resolve's touched set only: every change
  /// to flows_ is followed by a resolve within the same event, so at a
  /// later instant flows_ is exactly the set that resolve solved.
  void advance_progress();
  /// Re-solve rates and schedule the next completion event.
  void resolve();
  /// Delay of a completion `s` seconds from now, rounded up to the next ns
  /// (from_seconds_ceil): a truncated delay fires while the earliest flow
  /// still has a residue, which finishes nothing. 0 (schedule nothing) when
  /// the time is infinite or past SimTime's range.
  SimTime completion_delay(double s) const;
  void on_completion_event();

  Simulator& sim_;
  std::vector<std::string> names_;
  std::vector<double> capacity_;
  std::vector<ResourceStats> stats_;
  /// Ordered by FlowId so every walk — progress integration, solver input,
  /// completion collection — visits flows in the same sequence regardless of
  /// insertion/cancellation history. Float accumulation order is therefore a
  /// function of the live flow set alone, never of hash-table state.
  std::map<FlowId, ActiveFlow> flows_;
  /// Flows started with a latency that have not activated yet; cancelling
  /// one removes it here, and its activation then does nothing.
  std::set<FlowId> pending_;
  /// Solver state reused across resolves so a resolve allocates nothing:
  /// the workspace (its touched set doubles as the telemetry set), the
  /// solver's view of flows_, and per-resource progress of one interval.
  MaxMinWorkspace solver_;
  std::vector<SolverFlow> solver_flows_;
  std::vector<double> moved_;
  FlowId next_flow_id_ = 1;
  SimTime last_update_ = 0;
  EventId completion_event_ = 0;
  bool completion_scheduled_ = false;
  double aggregate_rate_ = 0.0;
  double total_delivered_ = 0.0;
  std::uint64_t solves_ = 0;
  std::uint64_t solved_flows_ = 0;
  std::uint64_t solved_resources_ = 0;
  std::uint64_t idle_completions_ = 0;
};

}  // namespace spider::sim
