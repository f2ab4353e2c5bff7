// perfbench: the repo benchmark's program (see perfbench/README.md).
//
// Runs one workload through the library's public API a fixed number of
// times, sized from --seconds, and prints every metric by name with its
// unit, then one JSON result line:
//
//   perfbench --workload center_shift|interference|metadata_churn
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --fidelity
//
// --trace 0 reports the end-to-end host metrics (fastest-slice sums over
// the repetitions).
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer profile: spans recorded here, around the calls into each
// module, plus per-event samples from the Simulator observer. Spans are
// kept in memory and written to --trace-out at exit.
// --fidelity runs every workload at the paper seeds and prints what the
// shipped paths print, for run.py to compare.
//
// --seed N shifts every paper seed (center 2014, checkpoints 7, analytics
// 11, churn 2026) by N - 2014, so --seed 2014 reproduces the shipped benches.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/center.hpp"
#include "core/churn_scenario.hpp"
#include "core/scenario.hpp"
#include "core/spider_config.hpp"
#include "fs/changelog.hpp"
#include "fs/purge.hpp"
#include "sim/oracle.hpp"
#include "sim/resource.hpp"
#include "sim/sharded_sim.hpp"
#include "tools/faultcli/campaign.hpp"
#include "tools/faultcli/churn.hpp"
#include "tools/health.hpp"
#include "tools/iosi.hpp"
#include "tools/lustredu.hpp"
#include "tools/spiderfsck/fsck.hpp"
#include "tools/standard_checks.hpp"
#include "workload/analytics.hpp"
#include "workload/s3d.hpp"

namespace {

using namespace spider;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU seconds, all threads, user + sys.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process image, from /proc/self/status.
/// getrusage's ru_maxrss would also count the parent's resident set at
/// fork, which Linux carries across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restrict the calling thread to `cpus`; false if the kernel refuses.
bool pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  return percentile(v, 50.0);
}

// --- seeds -----------------------------------------------------------------

constexpr std::uint64_t kPaperSeed = 2014;

struct Seeds {
  std::uint64_t center = 2014;
  std::uint64_t checkpoints = 7;
  std::uint64_t analytics = 11;
  std::uint64_t churn = 2026;
};

Seeds seeds_for(std::uint64_t seed) {
  const std::uint64_t shift = seed - kPaperSeed;  // wraps; Rng takes any value
  Seeds s;
  s.center += shift;
  s.checkpoints += shift;
  s.analytics += shift;
  s.churn += shift;
  return s;
}

// --- tracing ----------------------------------------------------------------

/// Spans around calls into each layer: name, start, end, parent. A layer's
/// self time is its span minus the part its child spans cover.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int rep = 0;
    double start_s = 0.0;
    double end_s = 0.0;
    double child_s = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_) tracer_->close(id_);
    }

   private:
    Tracer* tracer_;
    int id_;
  };

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void set_rep(int rep) { rep_ = rep; }

  [[nodiscard]] Scope span(std::string name) {
    if (!on_) return Scope(nullptr, -1);
    Span s;
    s.name = std::move(name);
    s.parent = current_;
    s.rep = rep_;
    s.start_s = since(origin_);
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(spans_.size()) - 1;
    return Scope(this, current_);
  }

  /// Self time of every span called `name` in repetition `rep`.
  double self_s(std::string_view name, int rep) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.rep == rep && s.name == name) {
        total += (s.end_s - s.start_s) - s.child_s;
      }
    }
    return total;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"rep\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                    "\"self_s\": %.9f}",
                    i, s.name.c_str(), s.parent, s.rep, s.start_s, s.end_s,
                    (s.end_s - s.start_s) - s.child_s);
      out << "  " << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = since(origin_);
    if (s.parent >= 0) {
      spans_[static_cast<std::size_t>(s.parent)].child_s += s.end_s - s.start_s;
    }
    current_ = s.parent;
  }

  bool on_ = false;
  int rep_ = 0;
  int current_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Per-event sampler hung on Simulator's observer: host timestamps (kept in
/// memory), the pending-queue high-water and the solver's input size.
class EventProbe {
 public:
  EventProbe(const sim::Simulator& sim, const sim::FlowNetwork& net)
      : sim_(sim), net_(net) {
    stamps_.reserve(1 << 18);
  }

  void operator()(sim::SimTime, sim::EventId, std::uint64_t) {
    stamps_.push_back(Clock::now());
    pending_max_ = std::max(pending_max_, sim_.pending_events());
    const std::size_t active = net_.active_flows();
    active_sum_ += static_cast<double>(active);
    active_max_ = std::max(active_max_, active);
  }

  std::vector<double> gaps_us() const {
    std::vector<double> gaps;
    gaps.reserve(stamps_.size());
    for (std::size_t i = 1; i < stamps_.size(); ++i) {
      gaps.push_back(
          std::chrono::duration<double, std::micro>(stamps_[i] - stamps_[i - 1])
              .count());
    }
    return gaps;
  }
  std::size_t pending_max() const { return pending_max_; }
  double active_mean() const {
    return stamps_.empty() ? 0.0 : active_sum_ / static_cast<double>(stamps_.size());
  }
  std::size_t active_max() const { return active_max_; }

 private:
  const sim::Simulator& sim_;
  const sim::FlowNetwork& net_;
  std::vector<Clock::time_point> stamps_;
  std::size_t pending_max_ = 0;
  double active_sum_ = 0.0;
  std::size_t active_max_ = 0;
};

// --- one repetition's outputs -------------------------------------------------

/// How far one repetition goes: set-up only (extra set-up samples), the
/// timed run, or the timed run with the per-event probe attached.
enum class Depth { kSetup, kRun, kProbe };

struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Set-up and the measured run, each cut into slices of fixed work:
  /// set-up at its fixed phases, the run at the same simulated instants in
  /// every repetition at one seed, so slice k of one repetition did exactly
  /// the work of slice k of another.
  std::vector<double> setup_slice_s;
  std::vector<double> slice_wall_s;
  std::vector<double> slice_cpu_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Everything that must repeat exactly at one seed.
  std::map<std::string, double> model;
  /// Counts and probe samples for the traced profile.
  std::map<std::string, double> layer;
  /// Shape checks: label -> passed.
  std::vector<std::pair<std::string, bool>> checks;
};

/// Times consecutive slices of fixed work: host seconds into `wall`, and
/// process CPU seconds into `cpu` when given. `total` accumulates the wall
/// time.
class SliceClock {
 public:
  SliceClock(std::vector<double>& wall, double& total,
             std::vector<double>* cpu = nullptr)
      : wall_s_(wall), total_(total), cpu_s_(cpu) {}
  void cut() {
    const auto now = Clock::now();
    wall_s_.push_back(std::chrono::duration<double>(now - wall_).count());
    total_ += wall_s_.back();
    wall_ = now;
    if (cpu_s_) {
      const double cpu = cpu_seconds();
      cpu_s_->push_back(cpu - cpu_);
      cpu_ = cpu;
    }
  }

 private:
  std::vector<double>& wall_s_;
  double& total_;
  std::vector<double>* cpu_s_;
  Clock::time_point wall_ = Clock::now();
  double cpu_ = cpu_seconds();
};

SliceClock setup_clock(Rep& rep) {
  return SliceClock(rep.setup_slice_s, rep.setup_s);
}

SliceClock run_clock(Rep& rep) {
  return SliceClock(rep.slice_wall_s, rep.wall_s, &rep.slice_cpu_s);
}

/// Run `sim` to idle in slices of `slice` simulated time, cutting `clock`
/// after each; run(until) keeps the event order of one run().
void run_sliced(sim::Simulator& sim, sim::SimTime slice, SliceClock& clock) {
  for (sim::SimTime until = slice; !sim.idle(); until += slice) {
    sim.run(until);
    clock.cut();
  }
}

// --- flow workloads -----------------------------------------------------------

core::CenterConfig center_config() {
  return core::scaled_config(core::spider2_config(), 0.1);
}

/// One sim::solve_max_min on the workload's own shape: the runner's
/// capacities plus `flows` checkpoint-burst paths from make_flow on the
/// workload's OST chooser. Median host µs over repeated calls.
double solve_us(core::CenterModel& center, core::ScenarioRunner& runner,
                double flows_mean, const core::ScenarioRunner::OstChooser& ost_of,
                std::size_t client_base) {
  const sim::FlowNetwork& net = runner.network();
  std::vector<double> capacity(net.resources());
  for (std::size_t r = 0; r < capacity.size(); ++r) {
    capacity[r] = net.capacity(static_cast<sim::ResourceId>(r));
  }
  const auto k = static_cast<std::size_t>(std::max(1.0, flows_mean + 0.5));
  std::vector<workload::DataFlow> dfs;
  for (std::size_t f = 0; f < k; ++f) {
    dfs.push_back(center.make_flow(runner.map(), client_base + f * 32, ost_of(f),
                                   block::IoDir::kWrite,
                                   block::IoMode::kSequential, 1_MiB));
  }
  std::vector<sim::SolverFlow> flows;
  for (const auto& df : dfs) flows.push_back({df.path, df.rate_cap});
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (samples.size() < 20 || (since(t0) < 0.05 && samples.size() < 5000)) {
    const auto t = Clock::now();
    const sim::SolveResult res = sim::solve_max_min(capacity, flows);
    samples.push_back(since(t) * 1e6);
    if (res.rate.size() != flows.size()) throw std::logic_error("solve size");
  }
  return median(samples);
}

void record_probe(Rep& rep, const EventProbe& probe, const sim::FlowNetwork& net) {
  const std::vector<double> gaps = probe.gaps_us();
  rep.layer["sim.event_us_p50"] = gaps.empty() ? 0.0 : percentile(gaps, 50.0);
  rep.layer["sim.event_us_p99"] = gaps.empty() ? 0.0 : percentile(gaps, 99.0);
  rep.layer["sim.pending_max"] = static_cast<double>(probe.pending_max());
  rep.layer["sim.flow_active_mean"] = probe.active_mean();
  rep.layer["sim.flow_active_max"] = static_cast<double>(probe.active_max());
  rep.layer["sim.flow_resources"] = static_cast<double>(net.resources());
}

void record_latencies(Rep& rep, const std::vector<double>& latencies) {
  rep.model["analytics_served"] = static_cast<double>(latencies.size());
  if (latencies.empty()) return;
  rep.model["analytics_mean_ms"] = mean_of(latencies) * 1e3;
  rep.model["analytics_p50_ms"] = percentile(latencies, 50.0) * 1e3;
  rep.model["analytics_p99_ms"] = percentile(latencies, 99.0) * 1e3;
  rep.model["analytics_p999_ms"] = percentile(latencies, 99.9) * 1e3;
}

/// S1's six-hour shift, composed exactly as bench_s1_center_day does it.
Rep center_shift(const Seeds& seeds, Tracer& tr, Depth depth) {
  Rep rep;
  SliceClock setup = setup_clock(rep);
  std::optional<core::CenterModel> center;
  sim::Simulator sim;
  std::optional<core::ScenarioRunner> runner;
  Rng rng(seeds.center);
  {
    auto span = tr.span("core.center_build");
    center.emplace(center_config(), rng);
    center->set_client_placement(core::ClientPlacement::kRandom, rng);
    runner.emplace(*center, sim);
  }
  setup.cut();
  const double shift_s = 6.0 * 3600.0;
  std::size_t bursts_submitted = 0;
  std::size_t bursts_done = 0;
  Bytes bytes_delivered = 0;
  std::vector<double> latencies;
  std::size_t requests = 0;
  {
    auto span = tr.span("workload.generate");
    workload::S3dParams app1;
    app1.ranks = 2048;
    app1.bytes_per_rank = 96_MiB;
    app1.output_interval_s = 2400.0;
    workload::S3dParams app2;
    app2.ranks = 512;
    app2.bytes_per_rank = 64_MiB;
    app2.output_interval_s = 600.0;
    Rng wl_rng(seeds.checkpoints);
    int app_index = 0;
    for (const auto& params : {app1, app2}) {
      const workload::S3dWorkload app(params);
      const std::size_t base = static_cast<std::size_t>(app_index) * 53;
      for (const auto& burst : app.generate(shift_s, wl_rng)) {
        ++bursts_submitted;
        runner->submit_burst(
            burst,
            [base, &center](std::size_t f) {
              return (base + f) % center->total_osts();
            },
            [&](core::BurstOutcome o) {
              ++bursts_done;
              bytes_delivered += o.bytes;
            },
            32, 20000 * static_cast<std::size_t>(app_index + 1));
      }
      ++app_index;
    }
    workload::AnalyticsParams ap;
    ap.clients = 16;
    ap.think_time_s = 10.0;
    workload::AnalyticsWorkload analytics(ap);
    Rng arng(seeds.analytics);
    auto reqs = analytics.generate(shift_s, arng);
    requests = reqs.size();
    runner->submit_requests(
        std::move(reqs),
        [&center](std::size_t w) { return (w * 13) % center->total_osts(); },
        &latencies, 60000);
  }
  setup.cut();

  // Fault injection (a rebuild window at 1 h, a controller failover at 4 h)
  // and the 5 s server-side throughput log IOSI reads.
  tools::HealthMonitor monitor;
  const auto& map = runner->map();
  sim.schedule_at(sim::from_seconds(3600.0), [&] {
    auto& grp = center->ssu(1).group(7);
    grp.fail_member(2);
    grp.start_rebuild(2);
    const std::size_t ost = 1 * center->config().ssu.raid_groups + 7;
    runner->network().set_capacity(
        map.ost[ost], center->ost_at(ost).bandwidth(block::IoMode::kSequential,
                                                    block::IoDir::kWrite));
    monitor.ingest({sim.now(), tools::EventSource::kHardware,
                    tools::Severity::kWarning, "ssu1-g7", "disk failed"});
  });
  sim.schedule_at(sim::from_seconds(4.0 * 3600.0), [&] {
    center->ssu(2).controller().fail_one();
    runner->network().set_capacity(map.controller[2],
                                   center->ssu(2).controller().delivered_bw());
    monitor.ingest({sim.now(), tools::EventSource::kHardware,
                    tools::Severity::kCritical, "ssu2-ctrl", "failover"});
  });
  std::vector<double> log;
  runner->record_throughput(5.0, shift_s, &log);
  setup.cut();
  if (depth == Depth::kSetup) return rep;

  std::optional<EventProbe> probe;
  if (depth == Depth::kProbe) {
    probe.emplace(sim, runner->network());
    sim.set_observer(*probe);
  }
  SliceClock clock = run_clock(rep);
  {
    auto span = tr.span("sim.run");
    run_sliced(sim, sim::kMinute, clock);
  }
  std::vector<tools::Incident> incidents;
  tools::CheckScheduler::Report report;
  std::vector<tools::DetectedBurst> detected;
  {
    auto span = tr.span("tools.post");
    incidents = monitor.coalesce(10 * sim::kMinute);
    tools::IbErrorCounters ib(8);
    const std::vector<double> mds_offered(center->filesystem().namespaces(), 5e3);
    auto checks = tools::make_standard_checks(*center, ib, mds_offered);
    report = checks.run_all();
    detected = tools::detect_bursts(log, 5.0);
  }
  clock.cut();
  sim.set_observer(nullptr);

  rep.attempted = bursts_submitted + requests;
  rep.failed = rep.attempted - (bursts_done + latencies.size());
  record_latencies(rep, latencies);
  rep.model["bursts_done"] = static_cast<double>(bursts_done);
  rep.model["delivered_tib"] =
      static_cast<double>(bytes_delivered) / (1024.0 * 1024.0 * 1024.0 * 1024.0);
  rep.model["incidents"] = static_cast<double>(incidents.size());
  rep.model["check_warnings"] = static_cast<double>(report.warning + report.critical);
  rep.model["log_bursts"] = static_cast<double>(detected.size());
  rep.model["events"] = static_cast<double>(sim.executed_events());
  rep.layer["sim.events"] = static_cast<double>(sim.executed_events());

  // bench_s1_center_day's shape checks.
  const double mean_latency = latencies.empty() ? 1e9 : mean_of(latencies);
  rep.checks = {
      {"both applications checkpointed all shift", bursts_done >= 40},
      {"multiple terabytes of checkpoint data landed",
       static_cast<double>(bytes_delivered) > 2.5 * 1099511627776.0},
      {"interactive analytics stayed responsive through the mix",
       mean_latency < 0.2},
      {"monitoring coalesced exactly the two injected faults",
       incidents.size() == 2},
      {"check battery shows exactly the rebuild + failover",
       report.warning + report.critical == 2},
      {"server-side logs carry the big application's burst structure",
       detected.size() >= 8},
  };
  if (probe) {
    record_probe(rep, *probe, runner->network());
    rep.layer["sim.solve_us"] = solve_us(
        *center, *runner, probe->active_mean(),
        [&center](std::size_t f) { return f % center->total_osts(); }, 20000);
  }
  return rep;
}

/// C16's run: 16 analytics clients for 60 s over 8 OSTs, and a 4096-client
/// checkpoint burst (128 flows of 32) on the same OSTs at t = 10 s. The
/// shape checks also need the analytics-alone and checkpoint-alone runs.
Rep interference(const Seeds& seeds, Tracer& tr, Depth depth,
                 bool with_checkpoint = true, bool with_analytics = true) {
  Rep rep;
  SliceClock setup = setup_clock(rep);
  std::optional<core::CenterModel> center;
  sim::Simulator sim;
  std::optional<core::ScenarioRunner> runner;
  Rng rng(seeds.center);
  {
    auto span = tr.span("core.center_build");
    center.emplace(center_config(), rng);
    center->set_client_placement(core::ClientPlacement::kRandom, rng);
    runner.emplace(*center, sim);
  }
  setup.cut();
  std::vector<double> latencies;
  std::size_t requests = 0;
  core::BurstOutcome outcome;
  bool checkpoint_done = false;
  const core::ScenarioRunner::OstChooser burst_osts = [](std::size_t f) {
    return f % 8;
  };
  {
    auto span = tr.span("workload.generate");
    if (with_analytics) {
      workload::AnalyticsParams ap;
      ap.clients = 16;
      workload::AnalyticsWorkload analytics(ap);
      Rng arng(seeds.analytics);
      auto reqs = analytics.generate(60.0, arng);
      requests = reqs.size();
      runner->submit_requests(std::move(reqs),
                              [](std::size_t w) { return w % 8; }, &latencies);
    }
    if (with_checkpoint) {
      workload::IoBurst burst;
      burst.start = 10 * sim::kSecond;
      burst.clients = 4096;
      burst.bytes_per_client = 512_MiB;
      runner->submit_burst(burst, burst_osts,
                           [&](core::BurstOutcome o) {
                             outcome = o;
                             checkpoint_done = true;
                           },
                           32, 100000);
    }
  }
  setup.cut();
  if (depth == Depth::kSetup) return rep;

  std::optional<EventProbe> probe;
  if (depth == Depth::kProbe) {
    probe.emplace(sim, runner->network());
    sim.set_observer(*probe);
  }
  SliceClock clock = run_clock(rep);
  {
    auto span = tr.span("sim.run");
    run_sliced(sim, sim::kSecond / 2, clock);
  }
  sim.set_observer(nullptr);

  rep.attempted = requests + (with_checkpoint ? 1 : 0);
  rep.failed = rep.attempted - (latencies.size() + (checkpoint_done ? 1 : 0));
  record_latencies(rep, latencies);
  rep.model["checkpoint_s"] =
      checkpoint_done ? sim::to_seconds(outcome.end - outcome.start) : 0.0;
  rep.model["events"] = static_cast<double>(sim.executed_events());
  rep.layer["sim.events"] = static_cast<double>(sim.executed_events());
  if (probe) {
    record_probe(rep, *probe, runner->network());
    rep.layer["sim.solve_us"] =
        solve_us(*center, *runner, probe->active_mean(), burst_osts, 100000);
  }
  return rep;
}

/// bench_c16_interference's shape checks at this seed; the contended run
/// is `contended`, the two one-sided runs are made here.
std::vector<std::pair<std::string, bool>> interference_checks(
    const Seeds& seeds, const Rep& contended, Rep* quiet_out = nullptr,
    Rep* alone_out = nullptr) {
  Tracer off;
  const Rep quiet =
      interference(seeds, off, Depth::kRun, /*checkpoint=*/false, true);
  const Rep alone =
      interference(seeds, off, Depth::kRun, true, /*analytics=*/false);
  if (quiet_out) *quiet_out = quiet;
  if (alone_out) *alone_out = alone;
  const auto& c = contended.model;
  const auto& q = quiet.model;
  return {
      {"checkpoint traffic visibly hurts analytics responsiveness",
       c.at("analytics_mean_ms") > 1.3 * q.at("analytics_mean_ms")},
      {"tail latency suffers most under contention",
       c.at("analytics_p99_ms") > 1.3 * q.at("analytics_p99_ms")},
      {"the reads also slow the checkpoint (contention is mutual)",
       c.at("checkpoint_s") > alone.model.at("checkpoint_s")},
  };
}

// --- metadata churn -------------------------------------------------------------

/// The changelog acceptance loop `spiderfault --churn --churn-crash` runs,
/// sized so one repetition is long enough to time.
tools::ChurnRunConfig churn_config(const Seeds& seeds) {
  tools::ChurnRunConfig cfg;
  cfg.params.ops_per_actor = 4096;
  cfg.params.seed = seeds.churn;
  cfg.crash = true;
  return cfg;
}

std::uint64_t total_walks(const core::ChurnScenario& scenario) {
  std::uint64_t walks = 0;
  for (std::size_t i = 0; i < scenario.namespace_count(); ++i) {
    walks += scenario.ns(i).full_walks();
  }
  return walks;
}

/// tools::run_churn composed from its public parts (so each layer can be
/// timed), followed by run_fsck check -> repair -> re-check on every
/// namespace. `lanes` is the engine's and fsck's fan-out (0 = auto).
Rep metadata_churn(const tools::ChurnRunConfig& cfg, Tracer& tr, Depth depth,
                   std::size_t lanes) {
  Rep rep;
  SliceClock setup = setup_clock(rep);
  sim::ShardedConfig engine_cfg;
  engine_cfg.workers = lanes;
  sim::ShardedSimulator engine(std::max<std::size_t>(1, cfg.engine_shards),
                               engine_cfg);
  const sim::ShardMap map(cfg.params.namespaces, engine.shards());
  core::ChurnScenario scenario(cfg.params, engine, map);
  const std::size_t n = scenario.namespace_count();

  tools::LustreDu du;
  fs::PurgeRules rules;
  rules.classes.push_back(
      fs::PurgeClass{cfg.purge_window_days, 0, cfg.purge_project});
  std::vector<std::unique_ptr<fs::PurgeEngine>> purgers;
  std::vector<std::unique_ptr<fs::ChangelogAccounting>> audit;
  std::vector<std::unique_ptr<sim::Oracle>> oracles;
  std::uint64_t records_applied = 0;
  setup.cut();
  {
    auto span = tr.span("core.churn_seed");
    scenario.seed_population();
    setup.cut();
    for (std::size_t i = 0; i < n; ++i) {
      du.follow(scenario.log(i), cfg.accounting_shards);
      purgers.push_back(std::make_unique<fs::PurgeEngine>(
          scenario.ns(i), scenario.log(i), rules));
      audit.push_back(
          std::make_unique<fs::ChangelogAccounting>(cfg.accounting_shards));
      oracles.push_back(tools::make_changelog_oracle(
          scenario.ns(i), scenario.log(i), *audit.back()));
    }
    records_applied += du.poll().applied;
    for (auto& purger : purgers) records_applied += purger->poll().applied;
  }
  setup.cut();
  if (depth == Depth::kSetup) return rep;

  SliceClock clock = run_clock(rep);
  scenario.start();
  const sim::SimTime total_span =
      cfg.params.think * static_cast<sim::SimTime>(cfg.params.ops_per_actor + 2);
  const std::size_t epochs = std::max<std::size_t>(1, cfg.epochs);
  const sim::SimTime epoch_span =
      total_span / static_cast<sim::SimTime>(epochs) + 1;

  std::uint64_t events = 0, purged = 0, recovery_walks = 0;
  std::uint64_t audits = 0, audits_failed = 0, queries = 0, queries_failed = 0;
  std::vector<sim::OracleViolation> violations;
  bool crash_injected = false, crash_detected = false;
  for (std::size_t e = 0; e < epochs; ++e) {
    const sim::SimTime horizon = epoch_span * static_cast<sim::SimTime>(e + 1);
    {
      auto span = tr.span("sim.shard_run");
      events += engine.run(horizon);
    }
    scenario.commit_all();
    if (cfg.crash && e == cfg.crash_epoch && !crash_injected) {
      fs::OpLog& log = scenario.log(0);
      log.truncate_to(log.committed() / 2);
      crash_injected = true;
    }

    // Walk fence: du queries and purge sweeps must cost no namespace walk.
    bool rewound = false;
    const std::uint64_t walks_before = total_walks(scenario);
    {
      auto span = tr.span("tools.du_poll");
      const fs::ConsumeResult res = du.poll();
      records_applied += res.applied;
      rewound = rewound || res.cursor_ahead;
    }
    {
      auto span = tr.span("fs.consume");
      for (auto& purger : purgers) {
        const fs::ConsumeResult res = purger->poll();
        if (!res.cursor_ahead) records_applied += res.applied;
        rewound = rewound || res.cursor_ahead;
      }
    }
    if (cfg.purge_every > 0 && (e + 1) % cfg.purge_every == 0) {
      auto span = tr.span("fs.purge_sweep");
      for (auto& purger : purgers) purged += purger->sweep(horizon).purged;
    }
    std::uint64_t stale = 0;
    for (std::size_t p = 0; p < cfg.query_projects; ++p) {
      if (du.usage(static_cast<std::uint32_t>(p)).stale) ++stale;
    }
    const bool walked = total_walks(scenario) != walks_before;
    queries += cfg.query_projects;
    queries_failed += walked ? cfg.query_projects : stale;

    scenario.commit_all();
    if (rewound) {
      crash_detected = true;
      auto span = tr.span("fs.resync");
      const std::uint64_t before = total_walks(scenario);
      du.resync_feed(0, scenario.ns(0));
      audit[0]->rebuild_from_namespace(scenario.ns(0), scenario.log(0));
      purgers[0]->rebuild();
      recovery_walks += total_walks(scenario) - before;
    }
    {
      auto span = tr.span("sim.oracle");
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t before = violations.size();
        oracles[i]->check(horizon, violations);
        ++audits;
        if (violations.size() != before) ++audits_failed;
      }
    }
    clock.cut();
  }

  // spiderfsck over every namespace: check, repair, re-check.
  std::uint64_t fsck_passes = 0, fsck_failed = 0, fsck_slots = 0;
  std::uint64_t fsck_findings = 0, orphan_findings = 0, orphan_namespaces = 0;
  std::uint64_t findings_hash = 0;
  {
    auto span = tr.span("tools.fsck");
    for (std::size_t i = 0; i < n; ++i) {
      tools::FsckTarget target;
      target.ns = &scenario.ns(i);
      target.journal = &scenario.log(i);
      tools::FsckOptions opts;
      opts.jobs = lanes;
      const tools::FsckReport first = tools::run_fsck(target, opts);
      opts.repair = true;
      const tools::FsckReport repair = tools::run_fsck(target, opts);
      opts.repair = false;
      const tools::FsckReport recheck = tools::run_fsck(target, opts);
      fsck_passes += 3;
      fsck_slots += first.slots_scanned + repair.slots_scanned +
                    recheck.slots_scanned;
      fsck_findings += first.findings.size();
      findings_hash = findings_hash * 1099511628211ULL ^ first.findings_hash;
      const bool crashed = crash_injected && i == 0;
      if (!crashed && !first.clean()) ++fsck_failed;
      if (!recheck.clean()) ++fsck_failed;
      const auto orphans = std::count_if(
          first.findings.begin(), first.findings.end(), [](const auto& f) {
            return f.kind == tools::FindingKind::kOrphanObjects;
          });
      orphan_findings += static_cast<std::uint64_t>(orphans);
      if (orphans > 0) ++orphan_namespaces;
      clock.cut();
    }
  }

  // Operations: every oracle audit, du query and fsck pass, plus the one
  // crash that must be detected.
  const bool crash_missed = cfg.crash && !crash_detected;
  rep.attempted = audits + queries + fsck_passes + (cfg.crash ? 1 : 0);
  rep.failed = audits_failed + queries_failed + fsck_failed + (crash_missed ? 1 : 0);

  rep.model["events"] = static_cast<double>(events);
  rep.model["records_applied"] = static_cast<double>(records_applied);
  rep.model["purged"] = static_cast<double>(purged);
  rep.model["logical_files"] = static_cast<double>(scenario.logical_files());
  rep.model["violations"] = static_cast<double>(violations.size());
  rep.model["fsck_findings"] = static_cast<double>(fsck_findings);
  rep.model["fsck_findings_hash"] = static_cast<double>(findings_hash >> 12);
  rep.model["orphan_findings"] = static_cast<double>(orphan_findings);
  rep.model["orphan_namespaces"] = static_cast<double>(orphan_namespaces);
  rep.model["recovery_walks"] = static_cast<double>(recovery_walks);

  rep.layer["sim.events"] = static_cast<double>(events);
  rep.layer["sim.shard_epochs"] = static_cast<double>(engine.epochs());
  rep.layer["sim.shard_cross_messages"] =
      static_cast<double>(engine.cross_messages());
  rep.layer["fs.records_applied"] = static_cast<double>(records_applied);
  rep.layer["fs.purged"] = static_cast<double>(purged);
  rep.layer["fs.recovery_walks"] = static_cast<double>(recovery_walks);
  rep.layer["tools.fsck_slots"] = static_cast<double>(fsck_slots);
  rep.layer["tools.fsck_findings"] = static_cast<double>(fsck_findings);

  rep.checks = {
      {"population stays past 1e9 logical files",
       scenario.logical_files() >= 1000000000ULL},
      {"the injected crash was injected", !cfg.crash || crash_injected},
  };
  return rep;
}

// --- metric tables ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"}, {"setup_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.run_s", "s"},
    {"sim.event_us_p50", "us"},
    {"sim.event_us_p99", "us"},
    {"sim.pending_max", "count"},
    {"sim.flow_active_mean", "count"},
    {"sim.flow_active_max", "count"},
    {"sim.flow_resources", "count"},
    {"sim.solve_us", "us"},
    {"sim.shard_run_s", "s"},
    {"sim.shard_speedup", "x"},
    {"sim.shard_epochs", "count"},
    {"sim.shard_cross_messages", "count"},
    {"sim.oracle_s", "s"},
    {"core.center_build_s", "s"},
    {"workload.generate_s", "s"},
    {"core.churn_seed_s", "s"},
    {"fs.consume_s", "s"},
    {"fs.records_applied", "count"},
    {"fs.purge_sweep_s", "s"},
    {"fs.purged", "count"},
    {"fs.resync_s", "s"},
    {"fs.recovery_walks", "count"},
    {"tools.du_poll_s", "s"},
    {"tools.fsck_s", "s"},
    {"tools.fsck_slots", "count"},
    {"tools.fsck_findings", "count"},
    {"tools.fsck_speedup", "x"},
    {"tools.post_s", "s"},
    {"common.lanes", "count"},
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"model.analytics_p50_ms", "ms"},
    {"model.analytics_p999_ms", "ms"},
    {"model.checkpoint_s", "s"},
    {"model.delivered_tib", "TiB"},
};

/// Span name -> per-layer metric holding its self time.
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"sim.run", "sim.run_s"},
    {"sim.shard_run", "sim.shard_run_s"},
    {"sim.oracle", "sim.oracle_s"},
    {"core.center_build", "core.center_build_s"},
    {"workload.generate", "workload.generate_s"},
    {"core.churn_seed", "core.churn_seed_s"},
    {"fs.consume", "fs.consume_s"},
    {"fs.purge_sweep", "fs.purge_sweep_s"},
    {"fs.resync", "fs.resync_s"},
    {"tools.du_poll", "tools.du_poll_s"},
    {"tools.fsck", "tools.fsck_s"},
    {"tools.post", "tools.post_s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = kPaperSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool fidelity = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + std::string(arg));
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value());
    } else if (arg == "--trace") {
      a.trace = value() == "1";
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else if (arg == "--fidelity") {
      a.fidelity = true;
    } else {
      throw std::invalid_argument("unknown argument " + std::string(arg));
    }
  }
  if (!a.fidelity && a.workload != "center_shift" && a.workload != "interference" &&
      a.workload != "metadata_churn") {
    throw std::invalid_argument("--workload must be center_shift, interference "
                                "or metadata_churn");
  }
  return a;
}

Rep run_rep(const Args& a, const Seeds& seeds, Tracer& tr, Depth depth,
            std::size_t lanes = 0) {
  if (a.workload == "center_shift") return center_shift(seeds, tr, depth);
  if (a.workload == "interference") return interference(seeds, tr, depth);
  return metadata_churn(churn_config(seeds), tr, depth, lanes);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Extra set-up-only passes before each repetition: set-up is short, so it
/// gets more samples, spread over the whole run.
constexpr int kExtraSetups = 4;

/// Host seconds one repetition of `workload` takes, its extra set-ups
/// included, on the reference host (see README.md). A run makes
/// seconds / this many repetitions whatever the speed of the code, so the
/// fastest-slice estimator below always takes its minimum over the same
/// number of samples; elapsed time only caps a run that is far slower.
double nominal_rep_s(const std::string& workload) {
  if (workload == "center_shift") return 1.4;
  if (workload == "interference") return 3.0;
  return 0.8;
}

/// Host noise on a shared machine only ever adds time, and comes in phases
/// that can cover a whole repetition. Every sample cuts the same work into
/// the same slices, so the undisturbed cost is the sum over slices of the
/// fastest sample of each.
double fastest(const std::vector<std::vector<double>>& samples) {
  const std::size_t n = samples.front().size();
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    double best = samples.front()[k];
    for (const auto& s : samples) {
      if (s.size() != n) throw std::logic_error("slice count differs");
      best = std::min(best, s[k]);
    }
    total += best;
  }
  return total;
}

double fastest(const std::vector<Rep>& reps, std::vector<double> Rep::*slices) {
  std::vector<std::vector<double>> samples;
  for (const Rep& r : reps) samples.push_back(r.*slices);
  return fastest(samples);
}

int run_workload(const Args& a) {
  const Seeds seeds = seeds_for(a.seed);
  Tracer tr;
  // The kinds of repetition a run makes, in turn each round: untraced; in a
  // traced run also traced, and on metadata_churn traced at one lane (engine
  // workers and fsck jobs), the numerators of the two speedups. Alternating
  // them compares like with like.
  enum Kind { kPlain, kTraced, kOneLane };
  std::vector<Kind> kinds = {kPlain};
  if (a.trace) kinds.push_back(kTraced);
  if (a.trace && a.workload == "metadata_churn") kinds.push_back(kOneLane);
  const std::size_t rounds = std::max<std::size_t>(
      3, static_cast<std::size_t>(a.seconds / nominal_rep_s(a.workload)) /
             kinds.size());
  const double cap_s = 2.0 * a.seconds + 10.0;
  std::vector<Rep> reps[3];
  std::vector<int> ids[3];
  std::vector<std::vector<double>> setups;
  // A single-threaded workload moves to the next CPU at each round: how
  // fast one CPU runs depends on what else its host core carries at the
  // time, and the per-slice minimum can only pick the quiet CPU if the
  // repetitions visited it. metadata_churn keeps every lane on all CPUs.
  // Where the kernel refuses affinity changes the repetitions stay put.
  const std::vector<int> cpus = allowed_cpus();
  bool rotate = a.workload != "metadata_churn" && cpus.size() > 1;
  const auto t0 = Clock::now();
  int rep_id = 0;
  std::size_t round = 0;
  for (; round < rounds && (round < 3 || since(t0) < cap_s); ++round) {
    for (const Kind kind : kinds) {
      if (rotate) rotate = pin_to({cpus[round % cpus.size()]});
      tr.set_on(false);
      for (int i = 0; i < kExtraSetups; ++i) {
        setups.push_back(run_rep(a, seeds, tr, Depth::kSetup).setup_slice_s);
      }
      tr.set_on(kind != kPlain);
      tr.set_rep(rep_id);
      Rep rep;
      {
        auto span = tr.span("rep");
        rep = run_rep(a, seeds, tr, kind == kTraced ? Depth::kProbe : Depth::kRun,
                      kind == kOneLane ? 1 : 0);
      }
      if (kind == kPlain) setups.push_back(rep.setup_slice_s);
      static const char* const kLabel[] = {"", " traced", " one-lane"};
      std::printf("  rep %d%s: setup_s %.6f wall_s %.6f\n", rep_id, kLabel[kind],
                  rep.setup_s, rep.wall_s);
      reps[kind].push_back(std::move(rep));
      ids[kind].push_back(rep_id++);
    }
  }
  if (rotate) pin_to(cpus);
  const std::vector<Rep>& plain = reps[kPlain];
  const std::vector<Rep>& traced = reps[kTraced];

  bool correct = true;
  std::vector<std::string> problems;
  if (round < rounds) {
    std::cout << "  note: time cap reached after " << round << " of " << rounds
              << " rounds\n";
  }
  const auto& model = plain.front().model;
  for (const Kind kind : kinds) {
    for (const Rep& r : reps[kind]) {
      if (r.model != model) {
        correct = false;
        problems.push_back(kind == kOneLane
                               ? "one-lane run disagrees with auto lanes"
                               : "repetitions at one seed disagree (determinism)");
        break;
      }
    }
  }

  // Shape checks run outside the timed repetitions.
  std::vector<std::pair<std::string, bool>> checks = plain.front().checks;
  if (a.workload == "interference") checks = interference_checks(seeds, plain.front());

  std::uint64_t attempted = 0, failed = 0;
  for (const Kind kind : {kPlain, kTraced}) {
    for (const Rep& r : reps[kind]) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  for (const auto& [label, ok] : checks) {
    std::cout << (ok ? "[PASS] " : "[FAIL] ") << label << "\n";
    if (!ok) {
      correct = false;
      problems.push_back("shape check failed: " + label);
    }
  }

  std::vector<std::pair<std::string, double>> metrics;
  std::map<std::string, double> values;
  auto model_or_zero = [&](const char* key) {
    const auto it = model.find(key);
    return it == model.end() ? 0.0 : it->second;
  };
  if (!a.trace) {
    values["wall_s"] = fastest(plain, &Rep::slice_wall_s);
    values["setup_s"] = fastest(setups);
    values["cpu_s"] = fastest(plain, &Rep::slice_cpu_s);
    values["peak_rss_mb"] = peak_rss_mb();
    for (const MetricDef& m : kEndToEnd) metrics.emplace_back(m.name, values[m.name]);
  } else {
    for (const MetricDef& m : kPerLayer) values[m.name] = 0.0;
    // Counts and probe samples: median over the traced repetitions.
    std::map<std::string, std::vector<double>> samples;
    for (const Rep& r : traced) {
      for (const auto& [k, v] : r.layer) samples[k].push_back(v);
    }
    for (const auto& [k, v] : samples) values[k] = median(v);
    auto span_median = [&](const char* span, Kind kind) {
      std::vector<double> v;
      for (int id : ids[kind]) v.push_back(tr.self_s(span, id));
      return median(v);
    };
    for (const auto& [span, metric] : kSpanMetrics) {
      values[metric] = span_median(span, kTraced);
    }
    if (!reps[kOneLane].empty()) {
      values["sim.shard_speedup"] =
          span_median("sim.shard_run", kOneLane) / values["sim.shard_run_s"];
      values["tools.fsck_speedup"] =
          span_median("tools.fsck", kOneLane) / values["tools.fsck_s"];
    }
    values["common.lanes"] = static_cast<double>(shared_pool().size() + 1);
    values["trace.wall_s"] = fastest(traced, &Rep::slice_wall_s);
    values["trace.overhead_s"] =
        values["trace.wall_s"] - fastest(plain, &Rep::slice_wall_s);
    values["model.analytics_p50_ms"] = model_or_zero("analytics_p50_ms");
    values["model.analytics_p999_ms"] = model_or_zero("analytics_p999_ms");
    values["model.checkpoint_s"] = model_or_zero("checkpoint_s");
    values["model.delivered_tib"] = model_or_zero("delivered_tib");
    for (const MetricDef& m : kPerLayer) metrics.emplace_back(m.name, values[m.name]);
    if (!a.trace_out.empty()) tr.write(a.trace_out);
  }

  std::cout << "workload " << a.workload << "  seed " << a.seed
            << "  repetitions " << plain.size();
  if (a.trace) std::cout << " untraced + " << traced.size() << " traced";
  if (!reps[kOneLane].empty()) std::cout << " + " << reps[kOneLane].size() << " one-lane";
  std::cout << "  lanes " << shared_pool().size() + 1 << "\n";
  for (const auto& [k, v] : model) {
    std::cout << "  model " << k << " = " << json_number(v) << "\n";
  }
  std::map<std::string, std::string> units;
  for (const MetricDef& m : kEndToEnd) units[m.name] = m.unit;
  for (const MetricDef& m : kPerLayer) units[m.name] = m.unit;
  for (const auto& [k, v] : metrics) {
    std::cout << "  " << k << " = " << json_number(v) << " " << units[k] << "\n";
  }
  std::cout << "  operations " << attempted << " attempted, " << failed << " failed\n";
  for (const auto& p : problems) std::cout << "  problem: " << p << "\n";

  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
       << json_number(metrics[i].second) << ", \"unit\": \"" << units[metrics[i].first]
       << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

/// Print, at the paper seeds, exactly the tables the shipped benches print,
/// and compare the churn composition with tools::run_churn in-process.
int run_fidelity() {
  const Seeds seeds = seeds_for(kPaperSeed);
  Tracer off;

  const Rep s1 = center_shift(seeds, off, Depth::kRun);
  Table t1;
  t1.set_columns({"metric", "value"});
  t1.add_row({std::string("checkpoint bursts completed"),
              static_cast<std::int64_t>(s1.model.at("bursts_done"))});
  t1.add_row({std::string("checkpoint volume (TiB)"), s1.model.at("delivered_tib")});
  t1.add_row({std::string("analytics requests served"),
              static_cast<std::int64_t>(s1.model.at("analytics_served"))});
  t1.add_row({std::string("analytics mean latency (ms)"),
              s1.model.at("analytics_mean_ms")});
  t1.add_row({std::string("analytics p99 latency (ms)"),
              s1.model.at("analytics_p99_ms")});
  t1.add_row({std::string("health incidents coalesced"),
              static_cast<std::int64_t>(s1.model.at("incidents"))});
  t1.print(std::cout);
  std::cout << "\n";

  const Rep contended = interference(seeds, off, Depth::kRun);
  Rep quiet, alone;
  interference_checks(seeds, contended, &quiet, &alone);
  Table t2;
  t2.set_columns({"scenario", "analytics mean ms", "p50 ms", "p99 ms",
                  "checkpoint time s"});
  t2.add_row({std::string("analytics alone"), quiet.model.at("analytics_mean_ms"),
              quiet.model.at("analytics_p50_ms"), quiet.model.at("analytics_p99_ms"),
              0.0});
  t2.add_row({std::string("analytics + checkpoint"),
              contended.model.at("analytics_mean_ms"),
              contended.model.at("analytics_p50_ms"),
              contended.model.at("analytics_p99_ms"),
              contended.model.at("checkpoint_s")});
  t2.add_row({std::string("checkpoint alone"), 0.0, 0.0, 0.0,
              alone.model.at("checkpoint_s")});
  t2.print(std::cout);
  std::cout << "\n";

  const tools::ChurnRunConfig cfg = churn_config(seeds);
  const Rep churn = metadata_churn(cfg, off, Depth::kRun, 0);
  const tools::ChurnVerdict verdict = tools::run_churn(cfg);
  const std::pair<const char*, double> expect[] = {
      {"events", static_cast<double>(verdict.events)},
      {"records_applied", static_cast<double>(verdict.records_applied)},
      {"purged", static_cast<double>(verdict.purged)},
      {"logical_files", static_cast<double>(verdict.logical_files)},
  };
  bool churn_ok = true;
  for (const auto& [key, value] : expect) {
    const double got = churn.model.at(key);
    std::cout << "churn " << key << ": composed " << json_number(got)
              << ", run_churn " << json_number(value) << "\n";
    churn_ok = churn_ok && got == value;
  }
  std::cout << "churn fidelity: " << (churn_ok ? "match" : "MISMATCH") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    return args.fidelity ? run_fidelity() : run_workload(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
