// spiderfsck scan throughput over namespace size (docs/fsck.md).
//
// Builds synthetic namespaces of increasing file count, times repeated dry
// fsck passes (phase-1 scan + phase-2 cross-reference) over each, and
// reports slots/sec under the `serial_<files>` names the baseline gates. A
// corrupt -> repair -> re-check convergence pass runs once per size as a
// shape check (repair wall time is reported, not gated). One more tree,
// whose journal holds every OpKind and at least 4x its slot count in
// records, reports journal records/sec of a dry pass as `journal_<records>`
// (report-only: no baseline entry, no floor).
//
// Modes (mirrors bench_macro_scale):
//   --spider-json=PATH   write the machine-readable report (scripts/bench.sh
//                        passes BENCH_fsck.json); without it none is written
//   --baseline=FILE      gate serial slots/sec against a checked-in report
//                        (ci/bench-baseline-fsck.json) at a 0.60x noise floor
//   --smoke              seconds-long run sized for CI
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "common/units.hpp"
#include "fs/fs_namespace.hpp"
#include "sim/time.hpp"
#include "tools/spiderfsck/fsck.hpp"

namespace {

using namespace spider;

using Clock = std::chrono::steady_clock;  // spiderlint: nondet-ok

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct FsckRunConfig {
  std::vector<std::size_t> sizes{4096, 16384, 65536};
  std::size_t target_slots = 1 << 19;  ///< reps sized so each point scans this
};

// Smoke keeps a subset of the full-mode sizes (same report names, so the
// checked-in full-mode baseline still gates it) and scans fewer total slots.
FsckRunConfig smoke_config() {
  FsckRunConfig cfg;
  cfg.sizes = {4096, 16384};
  cfg.target_slots = 1 << 16;
  return cfg;
}

struct FsckRun {
  double slots_per_sec = 0.0;
  double elapsed_s = 0.0;
  std::size_t reps = 0;
};

/// Time `reps` dry fsck passes over one tree. Dry runs never mutate, so
/// every rep sees the same namespace. `slots` is the actual slot count
/// (creates can fall short of the requested file count when the cluster
/// fills).
FsckRun run_point(tools::SyntheticFs& fs, std::size_t slots,
                  std::size_t reps) {
  FsckRun out;
  out.reps = reps;
  const Clock::time_point start = Clock::now();  // spiderlint: nondet-ok
  for (std::size_t r = 0; r < reps; ++r) tools::run_fsck(fs.target());
  out.elapsed_s = seconds_since(start);
  const double scanned =
      static_cast<double>(slots) * static_cast<double>(reps);
  out.slots_per_sec = out.elapsed_s > 0.0 ? scanned / out.elapsed_s : 0.0;
  return out;
}

/// Grow `fs`'s journal to at least 4x its slot count through the
/// namespace's changelog: touches, resizes and project moves of live files,
/// plus unlink/re-create churn, so all five OpKinds appear and the tree
/// still checks clean.
void add_journal_churn(tools::SyntheticFs& fs, std::uint64_t seed) {
  fs.ns->attach_oplog(fs.journal.get());
  std::vector<fs::FileId> live = fs.ns->live_ids();
  std::sort(live.begin(), live.end());
  Rng rng(seed);
  sim::SimTime now = fs.journal->records().back().at;
  const std::size_t target = 4 * fs.ns->slot_count();
  while (!live.empty() && fs.journal->size() < target) {
    now += sim::kSecond;
    const std::size_t pick = rng.uniform_index(live.size());
    const fs::FileId id = live[pick];
    const auto project = static_cast<std::uint32_t>(rng.uniform_index(4));
    switch (rng.uniform_index(5)) {
      case 0:
        fs.ns->touch_file(id, now);
        break;
      case 1:
        fs.ns->resize_file(id, 16_MiB + rng.uniform_index(48_MiB), now);
        break;
      case 2:
        fs.ns->set_project(id, project, now);
        break;
      default: {
        fs.ns->unlink(id, now);
        const Bytes size = (4 + rng.uniform_index(61)) * 1_MiB;
        live[pick] = fs.ns->create_file(project, size, now, rng);
        if (live[pick] == fs::kNoFile) {
          live[pick] = live.back();
          live.pop_back();
        }
        break;
      }
    }
  }
  fs.journal->commit(fs.journal->last_txid());
}

int run_bench(const std::string& json_path, const std::string& baseline_path,
              bool smoke) {
  const FsckRunConfig cfg = smoke ? smoke_config() : FsckRunConfig{};

  bench::banner("spiderfsck scan throughput (slots/sec)");

  bench::JsonReport report("fsck", smoke ? "smoke" : "full");
  bench::ShapeChecker checker;

  const std::optional<std::string> baseline =
      baseline_path.empty() ? std::string() : read_file(baseline_path);
  if (!baseline) {
    std::fprintf(stderr, "bench: cannot read baseline '%s'\n",
                 baseline_path.c_str());
    return 1;
  }
  const std::string& baseline_text = *baseline;

  const auto add = [&report](const std::string& name, const FsckRun& r) {
    report.add(name, "slots_per_sec", r.slots_per_sec);
    report.add(name, "elapsed_s", r.elapsed_s);
    report.add(name, "reps", static_cast<double>(r.reps));
    std::printf("  %-16s %12.0f slots/sec  (%zu reps in %.3fs)\n",
                name.c_str(), r.slots_per_sec, r.reps, r.elapsed_s);
  };
  const auto gate = [&](const std::string& name, const FsckRun& r) {
    if (baseline_text.empty()) return;
    double base = 0.0;
    if (!bench::json_number(baseline_text, name, "slots_per_sec", base)) {
      checker.check(false, name + ": baseline entry present");
      return;
    }
    const double ratio = base > 0.0 ? r.slots_per_sec / base : 0.0;
    report.add(name, "baseline_slots_per_sec", base);
    report.add(name, "vs_baseline", ratio);
    char label[160];
    std::snprintf(label, sizeof(label),
                  "%s: %.2fx of baseline %.0f slots/sec (floor 0.60x)",
                  name.c_str(), ratio, base);
    checker.check(ratio >= 0.6, label);
  };

  for (const std::size_t files : cfg.sizes) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "%zu", files);
    tools::SyntheticFsConfig fs_cfg;
    fs_cfg.files = files;
    fs_cfg.churn = 0.25;
    tools::SyntheticFs fs = tools::make_synthetic_fs(fs_cfg);
    const std::size_t slots = fs.ns->slot_count();
    checker.check(slots > 0, std::string(suffix) + " files: tree built");
    const std::size_t reps =
        cfg.target_slots >= slots ? cfg.target_slots / slots : 1;

    const FsckRun serial = run_point(fs, slots, reps);
    add(std::string("serial_") + suffix, serial);

    // Corrupt -> repair -> re-check convergence, once per size. Repair wall
    // time is reported for trajectory watching; only convergence is gated.
    {
      Rng rng(2014 + files);
      for (int k = 0; k < 10; ++k) {
        tools::inject_corruption(fs.target(),
                                 static_cast<tools::FindingKind>(k), rng);
      }
      tools::FsckOptions repair_opts;
      repair_opts.repair = true;
      const Clock::time_point start = Clock::now();  // spiderlint: nondet-ok
      const tools::FsckReport repaired =
          tools::run_fsck(fs.target(), repair_opts);
      const double repair_s = seconds_since(start);
      report.add(std::string("repair_") + suffix, "elapsed_s", repair_s);
      report.add(std::string("repair_") + suffix, "findings",
                 static_cast<double>(repaired.findings.size()));
      const bool converged = tools::run_fsck(fs.target()).clean();
      char label[96];
      std::snprintf(label, sizeof(label),
                    "%s files: corrupt tree repaired in one pass (%.3fs)",
                    suffix, repair_s);
      checker.check(!repaired.clean() && converged, label);
    }

    gate(std::string("serial_") + suffix, serial);
  }

  // Journal throughput: on a journal this long, a dry pass spends most of
  // its time on the records (replay_op_log, and the state hash folding
  // each one), not on the slots.
  {
    tools::SyntheticFsConfig fs_cfg;
    fs_cfg.files = cfg.sizes.back();
    tools::SyntheticFs fs = tools::make_synthetic_fs(fs_cfg);
    add_journal_churn(fs, 2014);
    const std::size_t slots = fs.ns->slot_count();
    const std::size_t records = fs.journal->size();
    char name[48];
    std::snprintf(name, sizeof(name), "journal_%zu", records);
    checker.check(records >= 4 * slots && tools::run_fsck(fs.target()).clean(),
                  std::string(name) + ": clean tree, journal >= 4x slots");
    const std::size_t reps =
        std::max<std::size_t>(1, 4 * cfg.target_slots / records);
    const FsckRun run = run_point(fs, slots, reps);
    const double replayed = static_cast<double>(records * reps);
    const double records_per_sec =
        run.elapsed_s > 0.0 ? replayed / run.elapsed_s : 0.0;
    report.add(name, "records_per_sec", records_per_sec);
    report.add(name, "slots", static_cast<double>(slots));
    report.add(name, "elapsed_s", run.elapsed_s);
    report.add(name, "reps", static_cast<double>(reps));
    std::printf("  %-16s %12.0f records/sec  (%zu slots, %zu reps in %.3fs)\n",
                name, records_per_sec, slots, reps, run.elapsed_s);
  }

  if (!json_path.empty()) {
    if (!report.write_file(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return checker.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;  // no report unless --spider-json= names one
  std::string baseline_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--spider-json=")) {
      json_path = std::string(arg.substr(14));
    } else if (arg.starts_with("--baseline=")) {
      baseline_path = std::string(arg.substr(11));
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--spider-json=PATH] [--baseline=FILE] "
                   "[--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  return run_bench(json_path, baseline_path, smoke);
}
