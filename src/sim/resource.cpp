#include "sim/resource.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace spider::sim {

void solve_max_min(std::span<const double> capacity,
                   std::span<const SolverFlow> flows, MaxMinWorkspace& ws) {
  const std::size_t nr = capacity.size();
  const std::size_t nf = flows.size();

  // Return the previous solve's entries to zero, then grow to this
  // capacity vector (new entries arrive zeroed).
  for (ResourceId r : ws.touched) {
    ws.active_cost[r] = 0.0;
    ws.utilization[r] = 0.0;
    ws.saturated[r] = 0;
    ws.seen[r] = 0;
  }
  ws.touched.clear();
  if (ws.seen.size() < nr) {
    ws.residual.resize(nr, 0.0);
    ws.active_cost.resize(nr, 0.0);
    ws.utilization.resize(nr, 0.0);
    ws.saturated.resize(nr, 0);
    ws.seen.resize(nr, 0);
  }
  ws.rate.assign(nf, 0.0);
  ws.frozen.assign(nf, 0);
  if (nf == 0) return;

  std::vector<double>& rate = ws.rate;
  std::vector<double>& residual = ws.residual;
  std::vector<double>& active_cost = ws.active_cost;
  std::vector<char>& frozen = ws.frozen;
  std::vector<char>& saturated = ws.saturated;
  const std::vector<ResourceId>& touched = ws.touched;

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
      rate[f] = std::isinf(flows[f].rate_cap) ? 0.0 : flows[f].rate_cap;
      frozen[f] = 1;
      continue;
    }
    ++unfrozen;
    for (const auto& hop : flows[f].path) {
      assert(hop.resource < nr);
      if (!ws.seen[hop.resource]) {
        ws.seen[hop.resource] = 1;
        ws.touched.push_back(hop.resource);
        residual[hop.resource] = capacity[hop.resource];
      }
      active_cost[hop.resource] += hop.cost;
    }
  }

  // Immediately saturated resources (zero capacity) pin their flows.
  for (ResourceId r : touched) {
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
        rate[f] = std::min(level, flows[f].rate_cap);
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
    for (ResourceId r : touched) {
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
          rate[f] = level;
          frozen[f] = 1;
          --unfrozen;
        }
      }
      break;
    }

    if (delta > 0.0) {
      level += delta;
      for (ResourceId r : touched) {
        if (active_cost[r] > 0.0) residual[r] -= active_cost[r] * delta;
      }
    }

    // Mark newly saturated resources.
    for (ResourceId r : touched) {
      if (!saturated[r] && active_cost[r] > 0.0 && residual[r] <= sat_eps(r)) {
        saturated[r] = 1;
        froze_any = true;  // the next loop pass will freeze its flows
      }
    }

    // Freeze cap-limited flows.
    if (cap_binds) {
      for (std::size_t f = 0; f < nf; ++f) {
        if (frozen[f] || flows[f].rate_cap > level + 1e-12 * (1.0 + level)) continue;
        rate[f] = flows[f].rate_cap;
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
          rate[f] = std::min(level, flows[f].rate_cap);
          frozen[f] = 1;
          --unfrozen;
        }
      }
      break;
    }
  }

  // Utilization report: one pass over all flow hops.
  std::vector<double>& used = ws.utilization;
  for (std::size_t f = 0; f < nf; ++f) {
    for (const auto& hop : flows[f].path) {
      used[hop.resource] += rate[f] * hop.cost;
    }
  }
  for (ResourceId r : touched) {
    used[r] = capacity[r] > 0.0 ? std::min(1.0, used[r] / capacity[r]) : 0.0;
  }
}

SolveResult solve_max_min(std::span<const double> capacity,
                          std::span<const SolverFlow> flows) {
  MaxMinWorkspace ws;
  solve_max_min(capacity, flows, ws);
  // A fresh workspace is exactly capacity-sized and zero off the touched
  // set, so its utilization array already is the dense report.
  return SolveResult{std::move(ws.rate), std::move(ws.utilization)};
}

}  // namespace spider::sim
