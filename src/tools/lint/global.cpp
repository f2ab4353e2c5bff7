#include "tools/lint/global.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/parallel.hpp"

namespace spider::lint {

namespace {

/// Keywords (and call-shaped non-calls) that `ident (` must not count as a
/// call site or a callee name.
bool call_shaped_keyword(std::string_view s) {
  return s == "if" || s == "while" || s == "for" || s == "switch" ||
         s == "return" || s == "sizeof" || s == "alignof" ||
         s == "decltype" || s == "catch" || s == "static_assert" ||
         s == "assert" || s == "noexcept" || s == "alignas" ||
         s == "throw" || s == "new" || s == "delete" || s == "co_await" ||
         s == "co_return" || s == "defined";
}

/// Called names inside the token range [begin, end): identifiers directly
/// followed by `(`. Member calls count — reaching a repair mutator through
/// any receiver is still reaching it.
std::set<std::string> called_names(const std::vector<Tok>& t,
                                   std::size_t begin, std::size_t end) {
  std::set<std::string> out;
  for (std::size_t i = begin; i + 1 < end && i + 1 < t.size(); ++i) {
    if (t[i].kind == TokKind::kIdent && is_punct(t[i + 1], "(") &&
        !call_shaped_keyword(t[i].text)) {
      out.insert(t[i].text);
    }
  }
  return out;
}

/// The innermost function definition whose body contains token `i`.
const FunctionSym* enclosing_def(const FileSymbols& syms, std::size_t i) {
  const FunctionSym* best = nullptr;
  for (const FunctionSym& f : syms.functions) {
    if (!f.is_definition || i < f.body_begin || i >= f.body_end) continue;
    if (best == nullptr || f.body_begin > best->body_begin) best = &f;
  }
  return best;
}

void add_finding(std::vector<Finding>& out, const RuleInfo& info,
                 const std::string& path, std::size_t line_index,
                 std::size_t col, std::string message) {
  Finding f;
  f.rule = std::string(info.id);
  f.severity = info.severity;
  f.file = path;
  f.line = line_index + 1;
  f.column = col + 1;
  f.message = std::move(message);
  f.hint = std::string(info.hint);
  out.push_back(std::move(f));
}

/// A nondeterminism source at token `i` (L16): wall clocks, ambient
/// randomness, thread ids, pointer identity laundered through
/// reinterpret_cast to an integer type. Returns a description, or empty.
std::string taint_source_at(const std::vector<Tok>& t, std::size_t i) {
  const Tok& tok = t[i];
  if (tok.kind != TokKind::kIdent) return {};
  const std::string& s = tok.text;
  if (s == "system_clock" || s == "steady_clock" ||
      s == "high_resolution_clock" || s == "random_device") {
    return s;
  }
  const bool call = i + 1 < t.size() && is_punct(t[i + 1], "(");
  if (call && (s == "rand" || s == "time" || s == "clock" ||
               s == "gettimeofday" || s == "clock_gettime")) {
    return s + "()";
  }
  if (call && s == "get_id") return "thread id (get_id())";
  if (s == "reinterpret_cast" && i + 1 < t.size() && is_punct(t[i + 1], "<")) {
    const std::size_t close = matching_close(t, i + 1);
    for (std::size_t j = i + 2; j < close && j < t.size(); ++j) {
      if (t[j].kind == TokKind::kIdent &&
          (t[j].text.find("int") != std::string::npos ||
           t[j].text == "size_t")) {
        return "pointer identity (reinterpret_cast to integer)";
      }
    }
  }
  return {};
}

/// True at `j` for an assignment operator: `=` (not `==`) or a compound
/// `+= -= *= /= %= &= |= ^=`. The tokenizer splits multi-char operators, so
/// `==` is two `=` tokens — the lookahead disambiguates.
bool assign_shape(const std::vector<Tok>& t, std::size_t j, std::size_t end) {
  if (j >= end || j >= t.size()) return false;
  if (is_punct(t[j], "=")) {
    return j + 1 >= end || j + 1 >= t.size() || !is_punct(t[j + 1], "=");
  }
  if (t[j].kind == TokKind::kPunct && t[j].text.size() == 1 &&
      std::string_view("+-*/%&|^").find(t[j].text[0]) !=
          std::string_view::npos &&
      j + 1 < end && j + 1 < t.size() && is_punct(t[j + 1], "=")) {
    // `x_ != y`, `x_ <= y`, `x_ >= y` start with !/</> — never matched here;
    // `x_ == y` is handled above. `a && b = c` cannot parse as a compound
    // because the second token of `&&` is `&`, not `=`.
    return j + 2 >= end || j + 2 >= t.size() || !is_punct(t[j + 2], "=");
  }
  return false;
}

/// Statement-boundary punctuation: what may legitimately precede a prefix
/// `++`/`--` or follow a postfix one. Restricting to these keeps unary-plus
/// sequences (`a + +x_`) from misreading as increments.
bool stmt_boundary(const Tok& t) {
  return is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}") ||
         is_punct(t, "(") || is_punct(t, ",") || is_punct(t, ":") ||
         is_punct(t, ")");
}

bool mutating_container_method(std::string_view s) {
  return s == "push_back" || s == "pop_back" || s == "emplace_back" ||
         s == "emplace" || s == "clear" || s == "erase" || s == "insert" ||
         s == "resize" || s == "assign" || s == "push" || s == "pop";
}

/// True when the member-convention identifier at `i` (trailing underscore)
/// is being written: assigned, compound-assigned (directly or through a
/// subscript), incremented/decremented, or mutated via a container method.
bool mutation_at(const std::vector<Tok>& t, std::size_t i, std::size_t begin,
                 std::size_t end) {
  if (assign_shape(t, i + 1, end)) return true;
  if (i + 1 < end && is_punct(t[i + 1], "[")) {
    const std::size_t close = matching_close(t, i + 1);
    if (close < end && assign_shape(t, close + 1, end)) return true;
  }
  if (i >= 2 && ((is_punct(t[i - 1], "+") && is_punct(t[i - 2], "+")) ||
                 (is_punct(t[i - 1], "-") && is_punct(t[i - 2], "-")))) {
    if (i - 2 == begin || (i >= 3 && stmt_boundary(t[i - 3]) &&
                           !is_punct(t[i - 3], ")"))) {
      return true;
    }
  }
  if (i + 2 < end && ((is_punct(t[i + 1], "+") && is_punct(t[i + 2], "+")) ||
                      (is_punct(t[i + 1], "-") && is_punct(t[i + 2], "-")))) {
    if (i + 3 >= end || is_punct(t[i + 3], ";") || is_punct(t[i + 3], ")") ||
        is_punct(t[i + 3], ",")) {
      return true;
    }
  }
  if (i + 3 < end && (is_punct(t[i + 1], ".") || is_punct(t[i + 1], "->")) &&
      t[i + 2].kind == TokKind::kIdent &&
      mutating_container_method(t[i + 2].text) && is_punct(t[i + 3], "(")) {
    return true;
  }
  return false;
}

bool member_convention_ident(const Tok& t) {
  return t.kind == TokKind::kIdent && t.text.size() >= 2 &&
         t.text.back() == '_';
}

/// Receiver names accepted as "the op journal" for L14 evidence and L16's
/// journal-record sink: `journal`, `journal_`, `log`, `log_`, `oplog`...
bool journal_receiver(std::string_view s) {
  std::string lower(s);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lower.find("journal") != std::string::npos || lower == "log" ||
         lower == "log_" || lower == "oplog" || lower == "oplog_";
}

/// Index of the first `.append(`/`->append(` member call on a journal-named
/// receiver inside [begin, end); `end` when absent.
std::size_t first_journal_append(const std::vector<Tok>& t, std::size_t begin,
                                 std::size_t end) {
  for (std::size_t i = begin; i + 1 < end && i + 1 < t.size(); ++i) {
    if (t[i].kind == TokKind::kIdent && t[i].text == "append" &&
        is_punct(t[i + 1], "(") && i >= 2 &&
        (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
        t[i - 2].kind == TokKind::kIdent && journal_receiver(t[i - 2].text)) {
      return i;
    }
  }
  return end;
}

}  // namespace

GlobalTu index_tu(const SourceFile& file,
                  const std::optional<FileClass>& forced_class) {
  GlobalTu tu;
  tu.file = &file;
  tu.stream = tokenize(file);
  tu.syms = index_symbols(tu.stream);
  tu.facts = classify_path(file.path);
  tu.cls = forced_class.value_or(tu.facts);
  return tu;
}

GlobalIndex::GlobalIndex(const std::vector<SourceFile>& files,
                         const std::optional<FileClass>& forced_class,
                         std::size_t jobs) {
  tus_.resize(files.size());
  // Each slot is written by exactly one task, so the index is identical at
  // any job count.
  spider::parallel_for(
      files.size(),
      [&](std::size_t i) {
        // spiderlint: pool-ok — slot-per-task writes, parallel_for joins
        tus_[i] = index_tu(files[i], forced_class);
      },
      jobs);
  for (std::size_t i = 0; i < files.size(); ++i) {
    by_path_.emplace(files[i].path, i);
  }
  link();
  close_repair_reachability();
  close_taint_returns();
}

std::optional<std::size_t> GlobalIndex::find(std::string_view path) const {
  const auto it = by_path_.find(path);
  if (it == by_path_.end()) return std::nullopt;
  return it->second;
}

void GlobalIndex::link() {
  for (std::size_t ti = 0; ti < tus_.size(); ++ti) {
    const FileSymbols& syms = tus_[ti].syms;
    for (std::size_t fi = 0; fi < syms.functions.size(); ++fi) {
      const FunctionSym& f = syms.functions[fi];
      if (f.name.empty()) continue;
      const Ref r{ti, fi};
      occurrences_[f.name].push_back(r);
      if (f.is_definition) definitions_[f.name].push_back(r);
      if (f.repair_only) annotated_repair_only_.insert(f.name);
      if (f.journaled) journaled_.insert({f.cls, f.name});
    }
  }
}

const std::vector<GlobalIndex::Ref>& GlobalIndex::definitions(
    std::string_view name) const {
  static const std::vector<Ref> kEmpty;
  const auto it = definitions_.find(name);
  return it == definitions_.end() ? kEmpty : it->second;
}

const std::vector<GlobalIndex::Ref>& GlobalIndex::occurrences(
    std::string_view name) const {
  static const std::vector<Ref> kEmpty;
  const auto it = occurrences_.find(name);
  return it == occurrences_.end() ? kEmpty : it->second;
}

bool GlobalIndex::is_repair_mutator(std::string_view name) const {
  if (name.substr(0, 9) == "fsck_set_") return true;
  if (name == "records_mutable" || name == "truncate_to") return true;
  return annotated_repair_only_.find(name) != annotated_repair_only_.end();
}

bool GlobalIndex::is_journaled(const Ref& def) const {
  const FunctionSym& f = fn(def);
  if (f.journaled) return true;
  return journaled_.find({f.cls, f.name}) != journaled_.end();
}

void GlobalIndex::close_repair_reachability() {
  // Per-definition callee-name sets, computed once up front.
  std::map<std::string, std::vector<std::set<std::string>>, std::less<>>
      callees;
  for (const auto& [name, defs] : definitions_) {
    if (is_repair_mutator(name)) continue;  // triggers need no closure
    auto& sets = callees[name];
    for (const Ref& r : defs) {
      const FunctionSym& f = fn(r);
      sets.push_back(
          called_names(tus_[r.tu].stream.tokens, f.body_begin, f.body_end));
    }
  }
  // Fixpoint under the all-definitions rule: a *name* becomes
  // repair-reaching only when every one of its definitions calls a trigger
  // or an already-reaching name. Overload/namespace collisions therefore
  // weaken the closure toward silence, never toward a spurious finding.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, sets] : callees) {
      if (repair_reaching_.find(name) != repair_reaching_.end()) continue;
      bool all = !sets.empty();
      std::string witness;
      for (const std::set<std::string>& s : sets) {
        std::string chain;
        for (const std::string& c : s) {
          if (c == name) continue;  // recursion is not evidence
          if (is_repair_mutator(c)) {
            chain = c;
            break;
          }
          const auto it = repair_reaching_.find(c);
          if (it != repair_reaching_.end()) {
            chain = c + " -> " + it->second;
            break;
          }
        }
        if (chain.empty()) {
          all = false;
          break;
        }
        if (witness.empty()) witness = std::move(chain);
      }
      if (all) {
        repair_reaching_[name] = std::move(witness);
        changed = true;
      }
    }
  }
}

void GlobalIndex::close_taint_returns() {
  struct DefBody {
    const std::vector<Tok>* toks;
    std::size_t begin, end;
  };
  std::map<std::string, std::vector<DefBody>, std::less<>> bodies;
  for (const auto& [name, defs] : definitions_) {
    auto& v = bodies[name];
    for (const Ref& r : defs) {
      const FunctionSym& f = fn(r);
      v.push_back(
          DefBody{&tus_[r.tu].stream.tokens, f.body_begin, f.body_end});
    }
  }
  // Does any `return` expression in [begin, end) carry taint? Returns the
  // source description, or empty.
  const auto tainted_return = [this](const DefBody& b) -> std::string {
    const std::vector<Tok>& t = *b.toks;
    for (std::size_t i = b.begin; i < b.end && i < t.size(); ++i) {
      if (!(t[i].kind == TokKind::kIdent && t[i].text == "return")) continue;
      int depth = 0;
      for (std::size_t j = i + 1; j < b.end && j < t.size(); ++j) {
        if (t[j].kind == TokKind::kPunct && t[j].text.size() == 1) {
          const char c = t[j].text[0];
          if (c == '(' || c == '[' || c == '{') ++depth;
          if (c == ')' || c == ']' || c == '}') --depth;
          if (c == ';' && depth == 0) break;
        }
        std::string desc = taint_source_at(t, j);
        if (!desc.empty()) return desc;
        if (t[j].kind == TokKind::kIdent && j + 1 < t.size() &&
            is_punct(t[j + 1], "(")) {
          const auto it = taint_returning_.find(t[j].text);
          if (it != taint_returning_.end()) {
            return it->second + " (via " + t[j].text + ")";
          }
        }
      }
    }
    return {};
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, defs] : bodies) {
      if (taint_returning_.find(name) != taint_returning_.end()) continue;
      bool all = !defs.empty();
      std::string witness;
      for (const DefBody& b : defs) {
        const std::string desc = tainted_return(b);
        if (desc.empty()) {
          all = false;
          break;
        }
        if (witness.empty()) witness = desc;
      }
      if (all) {
        taint_returning_[name] = std::move(witness);
        changed = true;
      }
    }
  }
}

std::string reduce_index(const std::vector<Tok>& t, std::size_t begin,
                         std::size_t end) {
  if (begin >= end || end > t.size()) return {};
  // shard_of(X) anywhere in the range: the domain index governs the shard.
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (is_ident(t[i], "shard_of") && is_punct(t[i + 1], "(")) {
      const std::size_t close = matching_close(t, i + 1);
      if (close < end) return reduce_index(t, i + 2, close);
    }
  }
  // static_cast<T>(X): the cast does not change the governing identifier.
  if (is_ident(t[begin], "static_cast") && begin + 1 < end &&
      is_punct(t[begin + 1], "<")) {
    const std::size_t angle = matching_close(t, begin + 1);
    if (angle + 1 < end && is_punct(t[angle + 1], "(")) {
      const std::size_t close = matching_close(t, angle + 1);
      if (close < end) return reduce_index(t, angle + 2, close);
    }
  }
  if (end - begin == 1 &&
      (t[begin].kind == TokKind::kIdent || t[begin].kind == TokKind::kNumber)) {
    return t[begin].text;
  }
  return {};
}

namespace {

/// Parameter names of `fn`, in order: per parameter, the last depth-0
/// identifier before a depth-0 `=` (default argument).
std::vector<std::string> param_names(const std::vector<Tok>& t,
                                     const FunctionSym& fn) {
  std::vector<std::string> names;
  if (fn.params_begin >= fn.params_end) return names;
  for (const ArgRange& a : split_args(t, fn.params_begin - 1, fn.params_end)) {
    std::string name;
    int d = 0;
    for (std::size_t i = a.begin; i < a.end; ++i) {
      if (d == 0 && is_punct(t[i], "=")) break;
      if (d == 0 && t[i].kind == TokKind::kIdent) name = t[i].text;
      d += depth_delta(t[i]);
    }
    names.push_back(std::move(name));
  }
  return names;
}

/// True when a `return` statement in fn's body calls one of `handles`.
bool returns_handle(const std::vector<Tok>& t, const FunctionSym& fn,
                    const std::set<std::string>& handles) {
  for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
    if (!is_ident(t[i], "return")) continue;
    for (std::size_t j = i + 1; j < fn.body_end && j < t.size(); ++j) {
      if (is_punct(t[j], ";")) break;
      if (t[j].kind == TokKind::kIdent && handles.count(t[j].text) != 0 &&
          j + 1 < t.size() && is_punct(t[j + 1], "(")) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

TuCallFacts GlobalIndex::call_facts(
    std::size_t tu, const std::set<std::string>& shard_owned) const {
  const std::vector<Tok>& t = tus_[tu].stream.tokens;
  const std::vector<FunctionSym>& fns = tus_[tu].syms.functions;
  TuCallFacts facts;
  facts.params.resize(fns.size());
  for (std::size_t f = 0; f < fns.size(); ++f) {
    if (fns[f].is_definition) facts.params[f] = param_names(t, fns[f]);
  }
  // Every fixpoint below is monotone, so visiting the definitions in
  // function-table order reaches the same least fixpoint as any order.

  // --- shard-handle returners (wrappers of wrappers resolve) ---------------
  facts.handles.insert("shard");
  for (bool changed = true; changed;) {
    changed = false;
    for (const FunctionSym& fn : fns) {
      if (!fn.is_definition || facts.handles.count(fn.name) != 0) continue;
      if (returns_handle(t, fn, facts.handles)) {
        facts.handles.insert(fn.name);
        changed = true;
      }
    }
  }

  // --- parameters flowing into shard-handle schedule indices ---------------
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t f = 0; f < fns.size(); ++f) {
      const FunctionSym& fn = fns[f];
      const std::vector<std::string>& names = facts.params[f];
      if (!fn.is_definition || names.empty()) continue;
      // Marks every parameter named by the index expression [b, e).
      const auto note = [&](std::size_t b, std::size_t e) {
        const std::string r = reduce_index(t, b, e);
        if (r.empty()) return;
        for (std::size_t p = 0; p < names.size(); ++p) {
          if (names[p] != r) continue;
          std::vector<std::size_t>& list = facts.sched_params[fn.name];
          if (std::find(list.begin(), list.end(), p) != list.end()) continue;
          list.insert(std::upper_bound(list.begin(), list.end(), p), p);
          changed = true;
        }
      };
      for (std::size_t i = fn.body_begin;
           i + 1 < fn.body_end && i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::kIdent || !is_punct(t[i + 1], "(")) {
          continue;
        }
        const std::size_t close = matching_close(t, i + 1);
        if (close >= t.size()) continue;
        // Direct: handle(IDX).schedule_at/..._in(...).
        if (facts.handles.count(t[i].text) != 0 && close + 2 < t.size() &&
            is_punct(t[close + 1], ".") &&
            (is_ident(t[close + 2], "schedule_at") ||
             is_ident(t[close + 2], "schedule_in"))) {
          note(i + 2, close);
        }
        // Indirect: a parameter forwarded into a callee's sched-param slot.
        const auto callee = facts.sched_params.find(t[i].text);
        if (callee == facts.sched_params.end() || t[i].text == fn.name) {
          continue;
        }
        const std::vector<ArgRange> args = split_args(t, i + 1, close);
        for (const std::size_t j : callee->second) {
          if (j < args.size()) note(args[j].begin, args[j].end);
        }
      }
    }
  }

  // --- transitive shard-owned touch ----------------------------------------
  if (shard_owned.empty()) return facts;
  for (const FunctionSym& fn : fns) {
    if (!fn.is_definition) continue;
    for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
      if (t[i].kind == TokKind::kIdent && shard_owned.count(t[i].text) != 0) {
        facts.touched[fn.name].insert(t[i].text);
      }
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const FunctionSym& fn : fns) {
      if (!fn.is_definition) continue;
      for (std::size_t i = fn.body_begin;
           i + 1 < fn.body_end && i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::kIdent || !is_punct(t[i + 1], "(")) {
          continue;
        }
        const auto callee = facts.touched.find(t[i].text);
        if (callee == facts.touched.end() || t[i].text == fn.name) continue;
        std::set<std::string>& mine = facts.touched[fn.name];
        const std::size_t before = mine.size();
        mine.insert(callee->second.begin(), callee->second.end());
        if (mine.size() != before) changed = true;
      }
    }
  }
  return facts;
}

namespace {

// --- L13 repair-mutator confinement ----------------------------------------

void run_l13(const GlobalIndex& index, std::vector<Finding>& out) {
  const RuleInfo* info = rule("L13");
  for (std::size_t ti = 0; ti < index.tu_count(); ++ti) {
    const GlobalTu& tu = index.tu(ti);
    if (tu.facts.repair_context) continue;  // allowed by location
    if (!tu.cls.in_src) continue;
    const std::vector<Tok>& t = tu.stream.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent || !is_punct(t[i + 1], "(")) continue;
      if (call_shaped_keyword(t[i].text)) continue;
      const std::string& name = t[i].text;
      const bool trigger = index.is_repair_mutator(name);
      const auto reach = index.repair_reaching().find(name);
      const bool reaching = reach != index.repair_reaching().end();
      if (!trigger && !reaching) continue;
      // Only call sites inside a function body count; the name token of a
      // declaration or definition is not a call.
      const FunctionSym* encl = enclosing_def(tu.syms, i);
      if (encl == nullptr) continue;
      // Repair mutators may compose (an annotated helper calling another
      // repair setter is still inside the repair surface).
      if (index.is_repair_mutator(encl->name)) continue;
      if (has_suppression(*tu.file, t[i].line, "repair-ok")) continue;
      std::string message;
      if (trigger) {
        message = "call to repair-only mutator '" + name +
                  "' outside a repair context (tools/spiderfsck/, "
                  "tools/faultcli/, tests/, bench/)";
      } else {
        message = "'" + name + "' reaches the repair-only surface (" + name +
                  " -> " + reach->second +
                  ") from outside a repair context (tools/spiderfsck/, "
                  "tools/faultcli/, tests/, bench/)";
      }
      add_finding(out, *info, tu.file->path, t[i].line, t[i].col,
                  std::move(message));
    }
  }
}

// --- L14 journal-before-mutation -------------------------------------------

void run_l14(const GlobalIndex& index, std::vector<Finding>& out) {
  const RuleInfo* info = rule("L14");
  // Crash-consistency-critical classes: any class exposing a repair mutator
  // (if fsck can rewrite its state, crashes mid-mutation must be
  // reconstructable from the op journal).
  std::set<std::string> checked;
  for (std::size_t ti = 0; ti < index.tu_count(); ++ti) {
    for (const FunctionSym& f : index.tu(ti).syms.functions) {
      if (!f.cls.empty() && index.is_repair_mutator(f.name)) {
        checked.insert(f.cls);
      }
    }
  }
  for (std::size_t ti = 0; ti < index.tu_count(); ++ti) {
    const GlobalTu& tu = index.tu(ti);
    if (!tu.cls.fs_scope) continue;
    const std::vector<Tok>& t = tu.stream.tokens;
    for (std::size_t fi = 0; fi < tu.syms.functions.size(); ++fi) {
      const FunctionSym& f = tu.syms.functions[fi];
      if (!f.is_definition || f.cls.empty() ||
          checked.find(f.cls) == checked.end()) {
        continue;
      }
      if (f.ctor_or_dtor || index.is_repair_mutator(f.name)) continue;
      if (index.is_journaled(GlobalIndex::Ref{ti, fi})) continue;
      const std::size_t journal_at =
          first_journal_append(t, f.body_begin, f.body_end);
      for (std::size_t i = f.body_begin; i < journal_at && i < t.size();
           ++i) {
        if (!member_convention_ident(t[i])) continue;
        if (!mutation_at(t, i, f.body_begin, f.body_end)) continue;
        if (has_suppression(*tu.file, t[i].line, "journal-ok")) continue;
        const std::string qual =
            f.cls.empty() ? f.name : f.cls + "::" + f.name;
        add_finding(out, *info, tu.file->path, t[i].line, t[i].col,
                    "'" + qual + "' mutates '" + t[i].text +
                        "' with no earlier OpLog append in the same body — "
                        "journal the operation first or annotate "
                        "SPIDER_JOURNALED(why)");
        break;  // one finding per function: the first unjournaled mutation
      }
    }
  }
}

// --- L15 finding/fault exhaustiveness --------------------------------------

struct CaseRec {
  std::string enum_name;
  std::string enumerator;
  std::string fn;  ///< enclosing definition name; "" at namespace scope
  bool in_src = false;
};

/// A repair-eligible switch case: inside a named src/ function that is
/// neither the injector nor a name-mapping helper (to_string,
/// finding_kind_name, ...).
bool repair_eligible(const CaseRec& c) {
  return c.in_src && !c.fn.empty() && c.fn != "inject_corruption" &&
         c.fn.find("name") == std::string::npos &&
         c.fn.find("string") == std::string::npos;
}

void run_l15(const GlobalIndex& index, std::vector<Finding>& out) {
  const RuleInfo* info = rule("L15");
  std::vector<CaseRec> cases;
  std::set<std::pair<std::string, std::string>> bind_uses;
  std::set<std::string> registered;  // make_*_oracle names passed to add(...)
  bool have_tests = false;
  for (std::size_t ti = 0; ti < index.tu_count(); ++ti) {
    const GlobalTu& tu = index.tu(ti);
    const std::vector<Tok>& t = tu.stream.tokens;
    if (tu.facts.in_tests || tu.cls.in_tests) have_tests = true;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      // `case A::B::kX:` — the last two links of the qualified chain are
      // the enum and the enumerator.
      if (t[i].text == "case" && t[i + 1].kind == TokKind::kIdent) {
        std::vector<std::string> chain;
        std::size_t j = i + 1;
        while (j < t.size() && t[j].kind == TokKind::kIdent) {
          chain.push_back(t[j].text);
          if (j + 1 < t.size() && is_punct(t[j + 1], "::")) {
            j += 2;
          } else {
            break;
          }
        }
        if (chain.size() >= 2) {
          const FunctionSym* encl = enclosing_def(tu.syms, i);
          cases.push_back(CaseRec{chain[chain.size() - 2], chain.back(),
                                  encl != nullptr ? encl->name : "",
                                  tu.facts.in_src || tu.cls.in_src});
        }
      }
      // `bind(FaultKind::kX, ...)` — injector bindings.
      if (t[i].text == "bind" && is_punct(t[i + 1], "(")) {
        const std::size_t close = matching_close(t, i + 1);
        for (std::size_t j = i + 2; j + 2 < close && j + 2 < t.size(); ++j) {
          if (t[j].kind == TokKind::kIdent && is_punct(t[j + 1], "::") &&
              t[j + 2].kind == TokKind::kIdent) {
            bind_uses.insert({t[j].text, t[j + 2].text});
          }
        }
      }
      // `add(make_x_oracle(...))` — oracle-suite registrations.
      if (t[i].text == "add" && is_punct(t[i + 1], "(")) {
        const std::size_t close = matching_close(t, i + 1);
        for (std::size_t j = i + 2; j < close && j < t.size(); ++j) {
          if (t[j].kind == TokKind::kIdent &&
              t[j].text.rfind("make_", 0) == 0 &&
              t[j].text.size() > 12 &&
              t[j].text.compare(t[j].text.size() - 7, 7, "_oracle") == 0) {
            registered.insert(t[j].text);
          }
        }
      }
    }
  }

  // Census over the two scoped enums the consistency loop is built on.
  // Each sub-check arms only when its evidence domain exists in the file
  // set, so a partial run degrades to missed findings, never spurious ones.
  for (std::size_t ti = 0; ti < index.tu_count(); ++ti) {
    const GlobalTu& tu = index.tu(ti);
    for (const EnumSym& en : tu.syms.enums) {
      if (!en.scoped) continue;
      if (en.name != "FindingKind" && en.name != "FaultKind") continue;
      const bool finding_kind = en.name == "FindingKind";
      bool armed_inject = false, armed_repair = false, armed_bind = false;
      for (const CaseRec& c : cases) {
        if (c.enum_name != en.name) continue;
        if (c.fn == "inject_corruption") armed_inject = true;
        if (repair_eligible(c)) armed_repair = true;
      }
      for (const auto& b : bind_uses) {
        if (b.first == en.name) armed_bind = true;
      }
      for (const Enumerator& e : en.enumerators) {
        std::vector<std::string> missing;
        if (finding_kind) {
          bool inject = false, repair = false;
          for (const CaseRec& c : cases) {
            if (c.enum_name != en.name || c.enumerator != e.name) continue;
            if (c.fn == "inject_corruption") inject = true;
            if (repair_eligible(c)) repair = true;
          }
          if (armed_inject && !inject) {
            missing.push_back("no inject_corruption case");
          }
          if (armed_repair && !repair) missing.push_back("no repair case");
        } else {
          if (armed_bind &&
              bind_uses.find({en.name, e.name}) == bind_uses.end()) {
            missing.push_back("no injector binding (bind(" + en.name +
                              "::" + e.name + ", ...))");
          }
        }
        if (have_tests) {
          bool mentioned = false;
          for (std::size_t tj = 0; tj < index.tu_count() && !mentioned;
               ++tj) {
            const GlobalTu& tt = index.tu(tj);
            if (!(tt.facts.in_tests || tt.cls.in_tests)) continue;
            for (const Tok& tok : tt.stream.tokens) {
              if (tok.kind == TokKind::kIdent && tok.text == e.name) {
                mentioned = true;
                break;
              }
            }
          }
          if (!mentioned) missing.push_back("no test mention");
        }
        if (missing.empty()) continue;
        if (has_suppression(*tu.file, e.line, "census-ok")) continue;
        std::string message = en.name + "::" + e.name + " is half-wired: ";
        for (std::size_t m = 0; m < missing.size(); ++m) {
          if (m > 0) message += ", ";
          message += missing[m];
        }
        add_finding(out, *info, tu.file->path, e.line, 0, std::move(message));
      }
    }
  }

  // Every declared oracle factory must be registered with a suite. Armed
  // only when at least one registration is visible in the file set.
  if (!registered.empty()) {
    std::set<std::string> reported;
    for (std::size_t ti = 0; ti < index.tu_count(); ++ti) {
      const GlobalTu& tu = index.tu(ti);
      if (!(tu.facts.in_src || tu.cls.in_src) || tu.facts.in_tests ||
          tu.facts.in_bench) {
        continue;
      }
      for (const FunctionSym& f : tu.syms.functions) {
        if (f.name.rfind("make_", 0) != 0 || f.name.size() <= 12 ||
            f.name.compare(f.name.size() - 7, 7, "_oracle") != 0) {
          continue;
        }
        if (registered.find(f.name) != registered.end()) continue;
        if (!reported.insert(f.name).second) continue;
        if (has_suppression(*tu.file, f.line, "census-ok")) continue;
        add_finding(out, *info, tu.file->path, f.line, 0,
                    "oracle factory '" + f.name +
                        "' is declared but never registered with a suite "
                        "(no add(" + f.name + "(...)) anywhere)");
      }
    }
  }
}

// --- L16 determinism taint --------------------------------------------------

void run_l16(const GlobalIndex& index, std::vector<Finding>& out) {
  const RuleInfo* info = rule("L16");
  for (std::size_t ti = 0; ti < index.tu_count(); ++ti) {
    const GlobalTu& tu = index.tu(ti);
    if (!tu.cls.in_src || tu.cls.in_tests || tu.cls.in_bench) continue;
    const std::vector<Tok>& t = tu.stream.tokens;
    for (const FunctionSym& f : tu.syms.functions) {
      if (!f.is_definition) continue;
      // Locals tainted so far, name -> source description. A clean
      // reassignment clears the taint, so stale entries cannot flag later
      // uses.
      std::map<std::string, std::string> tainted;
      const auto range_taint = [&](std::size_t b,
                                   std::size_t e) -> std::string {
        for (std::size_t j = b; j < e && j < t.size(); ++j) {
          std::string desc = taint_source_at(t, j);
          if (!desc.empty()) return desc;
          if (t[j].kind != TokKind::kIdent) continue;
          if (j + 1 < e && is_punct(t[j + 1], "(")) {
            const auto it = index.taint_returning().find(t[j].text);
            if (it != index.taint_returning().end()) {
              return it->second + " (via " + t[j].text + "())";
            }
          }
          const auto lt = tainted.find(t[j].text);
          if (lt != tainted.end()) {
            return lt->second + " (via local '" + t[j].text + "')";
          }
        }
        return {};
      };
      for (std::size_t i = f.body_begin; i < f.body_end && i < t.size();
           ++i) {
        if (t[i].kind != TokKind::kIdent) continue;
        // Assignment into a named value: propagate or clear taint.
        if (assign_shape(t, i + 1, f.body_end)) {
          const std::size_t rhs =
              is_punct(t[i + 1], "=") ? i + 2 : i + 3;
          std::size_t stmt_end = rhs;
          int depth = 0;
          while (stmt_end < f.body_end && stmt_end < t.size()) {
            const Tok& st = t[stmt_end];
            if (st.kind == TokKind::kPunct && st.text.size() == 1) {
              const char c = st.text[0];
              if (c == '(' || c == '[' || c == '{') ++depth;
              if (c == ')' || c == ']' || c == '}') --depth;
              if (c == ';' && depth == 0) break;
            }
            ++stmt_end;
          }
          const std::string desc = range_taint(rhs, stmt_end);
          if (desc.empty()) {
            tainted.erase(t[i].text);
          } else {
            tainted[t[i].text] = desc;
          }
          continue;
        }
        // Sinks: scheduled delays, hash inputs, journal records.
        if (i + 1 >= t.size() || !is_punct(t[i + 1], "(")) continue;
        const std::string& name = t[i].text;
        if (call_shaped_keyword(name)) continue;
        const std::size_t close = matching_close(t, i + 1);
        const std::vector<ArgRange> args = split_args(t, i + 1, close);
        std::vector<std::size_t> checked;
        std::string sink;
        if (name == "schedule_at" || name == "schedule_in") {
          if (!args.empty()) checked.push_back(0);
          sink = "a scheduled delay";
        } else if (name == "schedule_cross") {
          if (args.size() > 2) checked.push_back(2);
          sink = "a scheduled delay";
        } else if (name.find("hash") != std::string::npos) {
          for (std::size_t a = 0; a < args.size(); ++a) checked.push_back(a);
          sink = "a hash input";
        } else if (name == "append" && i >= 2 &&
                   (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
                   t[i - 2].kind == TokKind::kIdent &&
                   journal_receiver(t[i - 2].text)) {
          for (std::size_t a = 0; a < args.size(); ++a) checked.push_back(a);
          sink = "a journal record";
        } else {
          continue;
        }
        for (const std::size_t a : checked) {
          const std::string desc = range_taint(args[a].begin, args[a].end);
          if (desc.empty()) continue;
          if (has_suppression(*tu.file, t[i].line, "taint-ok")) break;
          add_finding(out, *info, tu.file->path, t[i].line, t[i].col,
                      "nondeterministic value (" + desc + ") flows into " +
                          sink + " via '" + name + "'");
          break;  // one finding per call site
        }
      }
    }
  }
}

}  // namespace

std::vector<Finding> lint_global(const GlobalIndex& index,
                                 const RuleSet& rules) {
  std::vector<Finding> out;
  if (rules.l13) run_l13(index, out);
  if (rules.l14) run_l14(index, out);
  if (rules.l15) run_l15(index, out);
  if (rules.l16) run_l16(index, out);
  return out;
}

}  // namespace spider::lint
