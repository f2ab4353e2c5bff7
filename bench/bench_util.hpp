// Shared helpers for the reproduction benches.
//
// Every bench prints the paper's table/series through spider::Table and
// finishes with explicit shape checks ([PASS]/[FAIL]) against the paper's
// qualitative claims. A bench exits non-zero if any shape check fails.
//
// Benches that track a perf trajectory (bench_micro_engine --spider-json)
// additionally emit a machine-readable JSON report via JsonReport, and read
// checked-in baselines back with json_number(). The JSON dialect is the
// minimal flat-ish subset those reports need — objects of named metric
// objects with numeric fields — not a general parser.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace spider::bench {

class ShapeChecker {
 public:
  void check(bool ok, const std::string& label) {
    std::cout << (ok ? "[PASS] " : "[FAIL] ") << label << "\n";
    if (!ok) ++failures_;
  }
  int exit_code() const { return failures_ == 0 ? 0 : 1; }

 private:
  int failures_ = 0;
};

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Accumulates named metric groups and renders them as one pretty-printed
/// JSON object:
///
///   { "bench": "...", "mode": "...",
///     "metrics": { "<group>": { "<field>": <number>, ... }, ... } }
///
/// Field order is insertion order, so reports diff cleanly across runs.
class JsonReport {
 public:
  JsonReport(std::string bench, std::string mode)
      : bench_(std::move(bench)), mode_(std::move(mode)) {}

  void add(const std::string& group, const std::string& field, double value) {
    Group* g = nullptr;
    for (auto& existing : groups_) {
      if (existing.name == group) g = &existing;
    }
    if (!g) {
      groups_.push_back(Group{group, {}});
      g = &groups_.back();
    }
    g->fields.push_back({field, value});
  }

  std::string render() const {
    std::ostringstream os;
    os << "{\n  \"bench\": \"" << bench_ << "\",\n  \"mode\": \"" << mode_
       << "\",\n  \"metrics\": {\n";
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      const Group& g = groups_[gi];
      os << "    \"" << g.name << "\": {";
      for (std::size_t fi = 0; fi < g.fields.size(); ++fi) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", g.fields[fi].second);
        os << (fi ? ", " : "") << "\"" << g.fields[fi].first << "\": " << buf;
      }
      os << "}" << (gi + 1 < groups_.size() ? "," : "") << "\n";
    }
    os << "  }\n}\n";
    return os.str();
  }

  /// Write the report to `path`; returns false (with a stderr note) on I/O
  /// failure so callers can fail the bench run.
  bool write_file(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench: cannot write '" << path << "'\n";
      return false;
    }
    out << render();
    return out.good();
  }

 private:
  struct Group {
    std::string name;
    std::vector<std::pair<std::string, double>> fields;
  };
  std::string bench_;
  std::string mode_;
  std::vector<Group> groups_;
};

/// Extract `"group": { ... "field": <number> ... }` from JSON text written by
/// JsonReport (or hand-maintained baselines in the same shape). Returns false
/// when the group or field is missing. Scans lexically — good enough for the
/// flat metric reports this repo emits, by design not a general JSON parser.
inline bool json_number(const std::string& text, const std::string& group,
                        const std::string& field, double& out) {
  const std::size_t gpos = text.find("\"" + group + "\"");
  if (gpos == std::string::npos) return false;
  const std::size_t open = text.find('{', gpos);
  if (open == std::string::npos) return false;
  const std::size_t close = text.find('}', open);
  if (close == std::string::npos) return false;
  const std::string body = text.substr(open, close - open);
  const std::size_t fpos = body.find("\"" + field + "\"");
  if (fpos == std::string::npos) return false;
  const std::size_t colon = body.find(':', fpos);
  if (colon == std::string::npos) return false;
  try {
    out = std::stod(body.substr(colon + 1));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace spider::bench
