// spiderlint driver: collect sources, pair headers, run the rules.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "tools/lint/report.hpp"
#include "tools/lint/rules.hpp"

namespace spider::lint {

/// Driver options.
struct LintOptions {
  RuleSet rules;
  /// When set, overrides path-based classification for every file (used to
  /// lint fixture files that live outside src/).
  std::optional<FileClass> forced_class;
  /// Worker count for the per-file pass and the global index build over
  /// the shared pool (0 = one per hardware thread). Findings are merged in
  /// canonical path order, so output is byte-identical at any job count.
  std::size_t jobs = 1;
  /// When non-empty, only findings in matching files are *reported*
  /// (exact path or path-suffix at a '/' boundary, like baseline entries).
  /// The index — and therefore the cross-TU rules — is still built from
  /// every input file: scripts/lint.sh --changed lints the full tree and
  /// filters the report, because L13-L16 are unsound on a partial index.
  std::vector<std::string> report_only;
};

/// Expand paths (files or directories) into a sorted, deduplicated list of
/// C++ sources (.cpp/.cc/.hpp/.h/.hh). Directories recurse. Unreadable
/// paths are reported in `errors`.
std::vector<std::string> collect_sources(const std::vector<std::string>& paths,
                                         std::vector<std::string>& errors);

/// Lint files on disk: scan each input once, build one GlobalIndex over
/// them (global.hpp), then run the per-file, layering and whole-program
/// rules on it. Each .cpp is paired with a sibling header of the same stem
/// — the index's TU when the header is an input, else read from disk as
/// context only. Unreadable files are reported in `errors`.
LintReport lint_paths(const std::vector<std::string>& paths,
                      const LintOptions& opts,
                      std::vector<std::string>& errors);

}  // namespace spider::lint
