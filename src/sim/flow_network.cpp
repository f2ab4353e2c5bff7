#include "sim/flow_network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace spider::sim {

namespace {
// A flow is considered finished when its remaining size drops below this
// fraction of one unit; prevents infinite tails from float error.
constexpr double kRemainingEps = 1e-6;
}  // namespace

ResourceId FlowNetwork::add_resource(std::string name, double capacity) {
  if (capacity < 0.0) throw std::invalid_argument("resource capacity must be >= 0");
  names_.push_back(std::move(name));
  capacity_.push_back(capacity);
  stats_.emplace_back();
  moved_.push_back(0.0);
  return static_cast<ResourceId>(capacity_.size() - 1);
}

void FlowNetwork::set_capacity(ResourceId id, double capacity) {
  advance_progress();
  capacity_.at(id) = capacity;
  resolve();
}

FlowId FlowNetwork::start_flow(FlowDesc desc) {
  if (desc.size <= 0.0) throw std::invalid_argument("flow size must be > 0");
  for (const auto& hop : desc.path) {
    if (hop.resource >= capacity_.size()) {
      throw std::out_of_range("flow path references unknown resource");
    }
  }
  const FlowId id = next_flow_id_++;
  if (desc.latency <= 0) {
    activate(id, std::move(desc));
    return id;
  }
  // A pending flow activates only if cancel_flow has not removed it from
  // pending_ meanwhile.
  pending_.insert(id);
  const SimTime latency = desc.latency;
  auto activate_later = [this, id, desc = std::move(desc)]() mutable {
    if (pending_.erase(id) != 0) activate(id, std::move(desc));
  };
  // This line, like resolve()'s wakeup, is a replay site (site_hash):
  // moving either call changes every golden stream hash.
  sim_.schedule_in(latency, std::move(activate_later));
  return id;
}

void FlowNetwork::cancel_flow(FlowId id) {
  if (pending_.erase(id) != 0) return;
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  advance_progress();
  flows_.erase(it);
  resolve();
}

void FlowNetwork::advance_progress() {
  const SimTime now = sim_.now();
  if (now == last_update_) return;
  const double dt = to_seconds(now - last_update_);
  last_update_ = now;
  if (dt <= 0.0) return;
  // Per-resource delivered units this interval, for telemetry. Only the
  // last resolve's touched set can be non-zero; the rest would add +0.0.
  for (auto& [id, f] : flows_) {
    const double moved = std::min(f.remaining, f.rate * dt);
    f.remaining -= moved;
    for (const auto& hop : f.path) moved_[hop.resource] += moved * hop.cost;
  }
  for (ResourceId r : solver_.touched) {
    stats_[r].served += moved_[r];
    if (capacity_[r] > 0.0) {
      stats_[r].busy_integral += moved_[r] / capacity_[r];
    }
    moved_[r] = 0.0;
  }
}

void FlowNetwork::resolve() {
  // Cancel any stale completion event.
  if (completion_scheduled_) {
    sim_.cancel(completion_event_);
    completion_scheduled_ = false;
  }

  // Resources leaving the touched set drop to zero load; the new set's
  // loads are written after the solve.
  for (ResourceId r : solver_.touched) stats_[r].current_load = 0.0;

  // flows_ is id-ordered, so the solver sees flows in a canonical sequence
  // and rate/float-sum results depend only on the live flow set.
  solver_flows_.clear();
  for (const auto& [id, f] : flows_) {
    solver_flows_.push_back(SolverFlow{f.path, f.rate_cap});
  }
  solve_max_min(capacity_, solver_flows_, solver_);
  ++solves_;
  solved_flows_ += solver_flows_.size();
  solved_resources_ += solver_.touched.size();

  aggregate_rate_ = 0.0;
  double min_completion_s = kUnbounded;
  std::size_t i = 0;
  for (auto& [id, f] : flows_) {
    f.rate = solver_.rate[i++];
    aggregate_rate_ += f.rate;
    if (f.rate > 0.0) {
      min_completion_s = std::min(min_completion_s, f.remaining / f.rate);
    }
  }
  for (ResourceId r : solver_.touched) {
    stats_[r].current_load = solver_.utilization[r];
  }

  // No event when the completion is past SimTime; later changes re-solve.
  const SimTime dt = completion_delay(min_completion_s);
  if (dt > 0) {
    completion_event_ = sim_.schedule_in(dt, [this] { on_completion_event(); });
    completion_scheduled_ = true;
  }
}

void FlowNetwork::on_completion_event() {
  completion_scheduled_ = false;
  advance_progress();
  // Collect finished flows (remaining ~ 0), fire callbacks after erasing so
  // callbacks may start new flows re-entrantly. The id-ordered walk makes
  // both the total_delivered_ sum and the callback order canonical.
  std::vector<std::pair<FlowId, std::function<void(FlowId, SimTime)>>> done;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->second.remaining <= kRemainingEps * (1.0 + it->second.remaining)) {
      total_delivered_ += it->second.size;
      done.emplace_back(it->first, std::move(it->second.on_complete));
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  if (done.empty()) ++idle_completions_;
  const SimTime now = sim_.now();
  for (auto& [id, cb] : done) {
    if (cb) cb(id, now);
  }
  resolve();
}

void FlowNetwork::activate(FlowId id, FlowDesc desc) {
  advance_progress();
  ActiveFlow f;
  f.path = std::move(desc.path);
  f.size = desc.size;
  f.remaining = desc.size;
  f.rate_cap = desc.rate_cap;
  f.on_complete = std::move(desc.on_complete);
  for (const auto& hop : f.path) ++stats_[hop.resource].flows_seen;
  flows_.emplace(id, std::move(f));
  resolve();
}

SimTime FlowNetwork::completion_delay(double s) const {
  if (!fits_sim_time(s)) return 0;
  const SimTime dt = from_seconds_ceil(s);
  return dt <= std::numeric_limits<SimTime>::max() - sim_.now() ? dt : 0;
}

double FlowNetwork::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

}  // namespace spider::sim
