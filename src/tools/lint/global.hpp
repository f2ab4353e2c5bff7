// spiderlint front end and whole-program layer: every input tokenized and
// symbol-indexed once, a cross-TU symbol index, a linked global call graph,
// and the censuses behind rules L13-L16.
//
// The index is the only front end: the per-file rules (rules.hpp) run on
// its per-TU token streams and symbols, seeing one translation unit plus
// its paired header; everything here sees the whole file set at once:
//
//   - a global symbol index resolving a function *name* to every
//     declaration and definition of that name across TUs;
//   - a global call graph: which definitions call which names, closed
//     interprocedurally (L13 repair reachability, L16 taint returns);
//   - an enum census: every enumerator of the scoped FindingKind/FaultKind
//     enums, matched against inject/repair switch cases, injector bindings,
//     oracle registrations, and test mentions (L15);
//   - the TU-scoped call facts behind L9/L10 (call_facts): resolution there
//     stays inside the calling TU's own definitions.
//
// Linking limits (the misparse-degrades-to-missed-finding contract):
// resolution is by unqualified name, not by signature. Overloads and
// same-named functions in different namespaces collapse onto one node, so a
// derived property (reaches a repair mutator, returns tainted data)
// propagates through a name only when EVERY definition of that name agrees
// — ambiguity weakens the analysis toward silence, never toward a spurious
// finding. Names in the explicit repair vocabulary (fsck_set_*,
// records_mutable, truncate_to) are exempt from the agreement rule: the
// naming contract itself is the signal. Declarations with no definition in
// the file set contribute annotations but never derived properties.
//
// Context checks (which directories may reach repair mutators, which files
// count as tests) are always *path*-based, independent of any --treat-as
// override: a forced FileClass changes which rules run on a file, not where
// the file lives. See docs/static-analysis.md.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lint/rules.hpp"
#include "tools/lint/scan.hpp"
#include "tools/lint/symbols.hpp"
#include "tools/lint/token.hpp"

namespace spider::lint {

/// One translation unit inside the global index.
struct GlobalTu {
  const SourceFile* file = nullptr;
  TokenStream stream;
  FileSymbols syms;
  FileClass cls;    ///< forced or path-derived; selects which rules apply
  FileClass facts;  ///< always path-derived; selects allowed contexts
};

/// Tokenize and symbol-index one scanned file. GlobalIndex builds every
/// input this way; lint_paths also uses it for a paired header that is not
/// an input, which then serves the per-file rules as context only.
GlobalTu index_tu(const SourceFile& file,
                  const std::optional<FileClass>& forced_class);

/// L9/L10's call facts for one TU (GlobalIndex::call_facts). Calls resolve
/// by unqualified name among the TU's own definitions — no overloads, no
/// cross-TU linking, no receiver types — which is enough for the
/// helper-wrapper patterns the engine uses (`zone_sim(z)` returning
/// `engine_.shard(map_.shard_of(z))`, private helpers threading a domain
/// index down to a schedule call). An unresolvable call degrades to a
/// missed finding, never a spurious one.
struct TuCallFacts {
  /// Names whose call yields a shard handle: `shard` itself, or a wrapper
  /// whose return statement calls a handle function (fixpoint).
  std::set<std::string> handles;
  /// Parameter indices of a function that flow, possibly through further
  /// helpers, into the index argument of `handle(idx).schedule_at/_in`.
  std::map<std::string, std::vector<std::size_t>> sched_params;
  /// Shard-owned member names a function's body touches, transitively
  /// through calls (fixpoint).
  std::map<std::string, std::set<std::string>> touched;
  /// Parameter names of each definition, by function-table index (empty
  /// for declarations). A misparsed name only suppresses checks.
  std::vector<std::vector<std::string>> params;
};

/// Reduce a shard-index expression to its governing identifier or numeric
/// literal: `z` -> "z", `map_.shard_of(target)` -> "target",
/// `static_cast<ShardId>(d)` -> "d", `0` -> "0". Empty for anything more
/// complex — callers must then skip their check (missed, not false).
std::string reduce_index(const std::vector<Tok>& t, std::size_t begin,
                         std::size_t end);

/// The cross-TU index. Construction tokenizes and symbol-indexes every
/// file (optionally in parallel over the shared pool — results are stored
/// by slot, so the index is identical at any job count) and then runs the
/// two interprocedural fixpoints.
class GlobalIndex {
 public:
  /// A declaration or definition, addressed by TU + function-table index.
  struct Ref {
    std::size_t tu = 0;
    std::size_t fn = 0;
  };

  GlobalIndex(const std::vector<SourceFile>& files,
              const std::optional<FileClass>& forced_class = std::nullopt,
              std::size_t jobs = 1);

  std::size_t tu_count() const { return tus_.size(); }
  const GlobalTu& tu(std::size_t i) const { return tus_[i]; }
  /// The TU scanned from `path`, when that path is an input.
  std::optional<std::size_t> find(std::string_view path) const;
  const FunctionSym& fn(const Ref& r) const {
    return tus_[r.tu].syms.functions[r.fn];
  }

  /// Every definition (function with a body) of `name`, across all TUs, in
  /// TU order. Empty for forward-declared-only and unknown names.
  const std::vector<Ref>& definitions(std::string_view name) const;
  /// Every declaration *and* definition of `name`.
  const std::vector<Ref>& occurrences(std::string_view name) const;

  /// L13 trigger vocabulary: fsck_set_* by prefix, records_mutable,
  /// truncate_to, or any name annotated SPIDER_REPAIR_ONLY on any
  /// declaration or definition.
  bool is_repair_mutator(std::string_view name) const;

  /// L13 closure: names that reach a repair mutator through the global
  /// call graph (triggers themselves excluded), mapped to a witness chain
  /// like "run_fsck -> fsck_set_live_files".
  const std::map<std::string, std::string, std::less<>>& repair_reaching()
      const {
    return repair_reaching_;
  }

  /// L14: the definition, or any declaration sharing its class and name,
  /// carries SPIDER_JOURNALED(why).
  bool is_journaled(const Ref& def) const;

  /// L16 closure: names whose return value derives from a nondeterminism
  /// source in every definition, mapped to a witness like
  /// "steady_clock (via host_entropy)".
  const std::map<std::string, std::string, std::less<>>& taint_returning()
      const {
    return taint_returning_;
  }

  /// L9/L10 facts for TU `tu` over its own definitions. `shard_owned` is
  /// the SPIDER_SHARD_OWNED name set of the TU and its paired header.
  TuCallFacts call_facts(std::size_t tu,
                         const std::set<std::string>& shard_owned) const;

 private:
  void link();
  void close_repair_reachability();
  void close_taint_returns();

  std::vector<GlobalTu> tus_;
  std::map<std::string, std::size_t, std::less<>> by_path_;
  std::map<std::string, std::vector<Ref>, std::less<>> definitions_;
  std::map<std::string, std::vector<Ref>, std::less<>> occurrences_;
  std::set<std::string, std::less<>> annotated_repair_only_;
  /// (class, name) pairs annotated SPIDER_JOURNALED anywhere.
  std::set<std::pair<std::string, std::string>> journaled_;
  std::map<std::string, std::string, std::less<>> repair_reaching_;
  std::map<std::string, std::string, std::less<>> taint_returning_;
};

/// Run the enabled whole-program rules (L13-L16) over a built index.
/// Findings come back unsorted; lint_paths merges and sorts them with the
/// per-file findings.
std::vector<Finding> lint_global(const GlobalIndex& index,
                                 const RuleSet& rules);

}  // namespace spider::lint
