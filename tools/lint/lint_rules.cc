#include "lint_rules.h"

#include <algorithm>
#include <set>

namespace tdac_lint {
namespace {

// ---------------------------------------------------------------------------
// Rule: nodiscard — header functions returning Status/Result<T> by value
// ---------------------------------------------------------------------------

void CheckNodiscard(const FileScan& scan, std::vector<Finding>* findings) {
  if (!IsHeader(scan.rel_path)) return;
  const std::vector<Token>& t = scan.tokens;
  static const std::set<std::string> kQualifiers = {
      "virtual", "static", "inline",    "constexpr", "friend",
      "explicit", "const", "nodiscard", "tdac",      "::",
      "[",        "]",     "maybe_unused"};
  static const std::set<std::string> kBoundaries = {";", "{", "}", ":", ">"};
  for (size_t i = 0; i < t.size(); ++i) {
    const bool is_status = t[i].text == "Status";
    const bool is_result = t[i].text == "Result";
    if (!is_status && !is_result) continue;

    // Declaration context: scanning backwards over qualifiers/attributes
    // must hit a statement boundary (or the start of the file).
    bool annotated = false;
    bool decl_context = true;
    size_t j = i;
    while (j > 0) {
      const std::string& prev = t[j - 1].text;
      if (kQualifiers.count(prev)) {
        if (prev == "nodiscard") annotated = true;
        --j;
        continue;
      }
      decl_context = kBoundaries.count(prev) > 0;
      break;
    }
    if (!decl_context) continue;

    // Return type: Status, or Result<...>; references/pointers are exempt
    // (nothing to discard-check on an accessor returning a reference).
    size_t k = i + 1;
    if (is_result) {
      size_t after = SkipAngles(t, k);
      if (after == k) continue;  // `Result` without template args: not a type
      k = after;
    }
    if (k >= t.size()) continue;
    if (t[k].text == "&" || t[k].text == "*") continue;
    if (t[k].text == "::") continue;  // Status::OK(...) etc.
    // Function name: identifier, optionally qualified (Out-of-line
    // `Result<T> Class::Member(` in a header).
    if (!IsIdentStart(t[k].text[0])) continue;
    size_t name_tok = k;
    ++k;
    while (k + 1 < t.size() && t[k].text == "::" &&
           IsIdentStart(t[k + 1].text[0])) {
      name_tok = k + 1;
      k += 2;
    }
    if (k >= t.size() || t[k].text != "(") continue;
    if (annotated) continue;
    const int line = t[i].line;
    // A multi-line declaration (qualifiers or attributes on the line(s)
    // above the return type) attaches waivers at its *first* token line,
    // so a nodiscard waiver above the declaration always works.
    const int decl_line = t[j].line;
    if (Waived(scan, line, "nodiscard-ok")) continue;
    if (decl_line != line && Waived(scan, decl_line, "nodiscard-ok")) continue;
    findings->push_back(
        {scan.rel_path, line, Rule::kNodiscard,
         "'" + t[name_tok].text + "' returns " +
             (is_status ? std::string("Status") : std::string("Result<T>")) +
             " by value and must be [[nodiscard]] "
             "(or waive: // lint: nodiscard-ok)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered — no order-dependent traversal of unordered containers
// anywhere under src/ (the determinism invariant is tree-wide)
// ---------------------------------------------------------------------------

void CheckUnordered(const FileScan& scan, const UnorderedNames& names,
                    std::vector<Finding>* findings) {
  if (!UnorderedRuleApplies(scan.rel_path)) return;
  const std::vector<Token>& t = scan.tokens;
  // Names declared in this file, plus its sibling (.h <-> .cc): members of
  // structs declared in group_runner.h are iterated from group_runner.cc.
  std::string sibling = scan.rel_path;
  if (EndsWith(sibling, ".cc")) {
    sibling = sibling.substr(0, sibling.size() - 3) + ".h";
  } else if (EndsWith(sibling, ".h")) {
    sibling = sibling.substr(0, sibling.size() - 2) + ".cc";
  }
  auto local_it = names.file_vars.find(scan.rel_path);
  auto sibling_it = names.file_vars.find(sibling);
  auto is_unordered_var = [&](const std::string& name) {
    if (names.global_vars.count(name)) return true;
    if (names.header_vars.count(name)) return true;
    if (local_it != names.file_vars.end() && local_it->second.count(name) > 0) {
      return true;
    }
    return sibling_it != names.file_vars.end() &&
           sibling_it->second.count(name) > 0;
  };
  auto report = [&](int line, const std::string& what) {
    if (Waived(scan, line, "unordered-ok")) return;
    findings->push_back(
        {scan.rel_path, line, Rule::kUnordered,
         what +
             " iterates an unordered container (order-dependent); iterate a "
             "sorted copy or waive an order-independent reduction with "
             "// lint: unordered-ok (reason)"});
  };
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    // Range-for: `for ( <decl> : <expr> )`.
    if (t[i].text == "for" && t[i + 1].text == "(") {
      int depth = 0;
      size_t colon = 0;
      size_t close = 0;
      for (size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")") {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        }
        if (t[j].text == ":" && depth == 1 && colon == 0) colon = j;
        if (t[j].text == ";") break;  // classic for loop
      }
      if (colon == 0 || close == 0) continue;
      // Target: last identifier of the ranged expression; a trailing `()`
      // marks an accessor call.
      bool is_call = false;
      size_t last = close;
      if (close >= 2 && t[close - 1].text == ")" && t[close - 2].text == "(") {
        is_call = true;
        last = close - 2;
      }
      if (last == 0 || !IsIdentStart(t[last - 1].text[0])) continue;
      const std::string& name = t[last - 1].text;
      const bool hit = is_call ? names.global_fns.count(name) > 0
                               : is_unordered_var(name);
      if (hit) report(t[i].line, "range-for over '" + name + "'");
    }
    // Iterator traversal: `x.begin()` / `x->begin()` on an unordered name.
    if ((t[i + 1].text == "." || t[i + 1].text == "->") && i + 2 < t.size() &&
        (t[i + 2].text == "begin" || t[i + 2].text == "cbegin") &&
        IsIdentStart(t[i].text[0]) && is_unordered_var(t[i].text)) {
      report(t[i].line, "'" + t[i].text + "." + t[i + 2].text + "()'");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: random — all randomness flows through src/common/random.*
// ---------------------------------------------------------------------------

void CheckRandom(const FileScan& scan, std::vector<Finding>* findings) {
  if (StartsWith(scan.rel_path, "src/common/random.")) return;
  const std::vector<Token>& t = scan.tokens;
  static const std::set<std::string> kForbiddenAlways = {
      "random_device",  "random_shuffle", "mt19937",
      "mt19937_64",     "minstd_rand",    "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};
  auto report = [&](int line, const std::string& what) {
    if (Waived(scan, line, "random-ok")) return;
    findings->push_back(
        {scan.rel_path, line, Rule::kRandom,
         what + " bypasses the seeded tdac::Rng (src/common/random.h); use "
                "an explicit seed or waive with // lint: random-ok (reason)"});
  };
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (kForbiddenAlways.count(s)) {
      report(t[i].line, "'" + s + "'");
      continue;
    }
    const bool call_like = i + 1 < t.size() && t[i + 1].text == "(";
    if ((s == "rand" || s == "srand") && call_like) {
      report(t[i].line, "'" + s + "()'");
      continue;
    }
    if (s == "time" && call_like && i + 2 < t.size() &&
        (t[i + 2].text == "NULL" || t[i + 2].text == "nullptr" ||
         t[i + 2].text == "0")) {
      report(t[i].line, "'time(" + t[i + 2].text + ")' seeding");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: throw — no exceptions in the public API surface
// ---------------------------------------------------------------------------

void CheckThrow(const FileScan& scan, std::vector<Finding>* findings) {
  if (!IsHeader(scan.rel_path)) return;
  if (!StartsWith(scan.rel_path, "src/td/") &&
      !StartsWith(scan.rel_path, "src/partition/")) {
    return;
  }
  for (const Token& tok : scan.tokens) {
    if (tok.text != "throw") continue;
    if (Waived(scan, tok.line, "throw-ok")) continue;
    findings->push_back(
        {scan.rel_path, tok.line, Rule::kThrow,
         "'throw' in a public API header (src/td/, src/partition/) violates "
         "the no-exceptions-across-the-API rule (DESIGN.md §2); return a "
         "Status or waive with // lint: throw-ok (reason)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: claim-value — library code reads the columnar store, not Claims
// ---------------------------------------------------------------------------

void CheckClaimValue(const FileScan& scan, std::vector<Finding>* findings) {
  if (!EndsWith(scan.rel_path, ".cc") || !StartsWith(scan.rel_path, "src/")) {
    return;
  }
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    // `<expr> . claim (` or `<expr> -> claim (` — the materializing
    // accessor. num_claims()/claim_ids()/claim_sources() tokenize
    // differently, so the exact-token match cannot false-positive on them.
    if (t[i].text != "." && t[i].text != "->") continue;
    if (t[i + 1].text != "claim" || t[i + 2].text != "(") continue;
    const int line = t[i + 1].line;
    if (Waived(scan, line, "claim-value-ok")) continue;
    findings->push_back(
        {scan.rel_path, line, Rule::kClaimValue,
         "'claim(i)' materializes a whole Claim (Value included) per "
         "call; read the columnar store (claim_sources(), "
         "claim_value_ids(), claim_items()) instead, or waive a reference "
         "path with // lint: claim-value-ok (reason)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: scratch-path — tests build scratch paths with testutil::ScratchDir
// ---------------------------------------------------------------------------

void CheckScratchPath(const FileScan& scan, std::vector<Finding>* findings) {
  if (!StartsWith(scan.rel_path, "tests/")) return;
  if (scan.rel_path == "tests/test_util.h") return;  // ScratchDir's home
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "TempDir" || t[i + 1].text != "(") continue;
    const int line = t[i].line;
    if (Waived(scan, line, "scratch-path-ok")) continue;
    findings->push_back(
        {scan.rel_path, line, Rule::kScratchPath,
         "'TempDir()' builds a path that a `_threads8` twin running under "
         "ctest -j shares; use testutil::ScratchDir (tests/test_util.h), or "
         "waive a path unique by construction with "
         "// lint: scratch-path-ok (reason)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: checkpoint-codec — checkpoint payloads go through one codec
// ---------------------------------------------------------------------------

bool CheckpointCodecRuleApplies(const std::string& rel) {
  if (StartsWith(rel, "src/common/checkpoint.")) return false;  // the codec
  return StartsWith(rel, "src/") || StartsWith(rel, "bench/");
}

void CheckCheckpointCodec(const FileScan& scan,
                          std::vector<Finding>* findings) {
  if (!CheckpointCodecRuleApplies(scan.rel_path)) return;
  for (const Token& tok : scan.tokens) {
    if (tok.text != "HexDouble" && tok.text != "ParseHexDouble") continue;
    if (Waived(scan, tok.line, "checkpoint-codec-ok")) continue;
    findings->push_back(
        {scan.rel_path, tok.line, Rule::kCheckpointCodec,
         "'" + tok.text + "' outside src/common/checkpoint hand-rolls a "
         "checkpoint payload; write it with PayloadWriter and read it with "
         "PayloadReader (common/checkpoint.h), or waive with "
         "// lint: checkpoint-codec-ok (reason)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: guard — fixpoint loops consult the RunGuard they were handed
// ---------------------------------------------------------------------------

bool GuardRuleApplies(const std::string& rel) {
  return StartsWith(rel, "src/td/") || StartsWith(rel, "src/tdac/") ||
         StartsWith(rel, "src/partition/");
}

// Identifiers that mark a loop condition as a fixpoint / convergence /
// work-queue loop rather than a plain element loop. Lower-cased substring
// match, so `iter`, `max_iterations`, `sweep_trip`, `improved`,
// `exhausted`, `passes_done` all trigger.
bool IsFixpointConditionToken(const std::string& text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                         : c);
  }
  static const char* kMarkers[] = {"iter",    "converg", "improve",
                                   "exhaust", "trip",    "epoch"};
  for (const char* m : kMarkers) {
    if (lower.find(m) != std::string::npos) return true;
  }
  return false;
}

bool MentionsGuard(const std::vector<Token>& t, size_t begin, size_t end) {
  static const std::set<std::string> kGuardTokens = {
      "guard", "guard_", "run_guard", "RunGuard", "RunBudget", "OnIteration",
      "ShouldStop"};
  for (size_t i = begin; i < end && i < t.size(); ++i) {
    if (kGuardTokens.count(t[i].text) > 0) return true;
  }
  return false;
}

void CheckGuard(const FileScan& scan, std::vector<Finding>* findings) {
  if (!GuardRuleApplies(scan.rel_path)) return;
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    const bool is_for = t[i].text == "for";
    const bool is_while = t[i].text == "while";
    if ((!is_for && !is_while) || t[i + 1].text != "(") continue;
    const size_t after_header = SkipParens(t, i + 1);
    if (after_header == i + 1) continue;  // unbalanced
    const size_t close = after_header - 1;

    // Extract the condition: the whole parens for `while`, the part
    // between the first and second depth-1 ';' for a classic `for`
    // (a range-for has none and is never a fixpoint loop).
    size_t cond_begin = i + 2;
    size_t cond_end = close;
    if (is_for) {
      size_t first_semi = 0;
      size_t second_semi = 0;
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")") --depth;
        if (t[j].text == ";" && depth == 1) {
          if (first_semi == 0) {
            first_semi = j;
          } else {
            second_semi = j;
            break;
          }
        }
      }
      if (first_semi == 0 || second_semi == 0) continue;  // range-for etc.
      cond_begin = first_semi + 1;
      cond_end = second_semi;
    }

    // Trigger: empty condition (`for (;;)` / `while (true)`) or a
    // fixpoint-marker identifier in the condition.
    bool triggers = cond_begin >= cond_end;
    for (size_t j = cond_begin; j < cond_end && !triggers; ++j) {
      if (t[j].text == "true" ||
          (IsIdentStart(t[j].text[0]) && IsFixpointConditionToken(t[j].text))) {
        triggers = true;
      }
    }
    if (!triggers) continue;

    // Loop extent: header plus the braced body (or the single statement).
    size_t body_end = after_header;
    if (after_header < t.size() && t[after_header].text == "{") {
      body_end = SkipBraces(t, after_header);
    } else {
      while (body_end < t.size() && t[body_end].text != ";") ++body_end;
    }
    if (MentionsGuard(t, i, body_end)) continue;

    const int line = t[i].line;
    if (Waived(scan, line, "guard-ok")) continue;
    findings->push_back(
        {scan.rel_path, line, Rule::kGuard,
         "fixpoint-shaped loop never consults its RunGuard; call "
         "guard.OnIteration() (or ShouldStop() at phase boundaries) so "
         "deadlines/cancellation propagate, or waive a provably bounded "
         "loop with // lint: guard-ok (bounded: reason)"});
  }
}

// ---------------------------------------------------------------------------
// Rule: atomic-io — every file write goes through src/common/io
// ---------------------------------------------------------------------------

bool AtomicIoRuleApplies(const std::string& rel) {
  if (StartsWith(rel, "src/common/io.")) return false;  // the one home
  return StartsWith(rel, "src/") || StartsWith(rel, "tools/") ||
         StartsWith(rel, "bench/");
}

void CheckAtomicIo(const FileScan& scan, std::vector<Finding>* findings) {
  if (!AtomicIoRuleApplies(scan.rel_path)) return;
  const std::vector<Token>& t = scan.tokens;
  auto report = [&](int line, const std::string& what) {
    if (Waived(scan, line, "atomic-io-ok")) return;
    findings->push_back(
        {scan.rel_path, line, Rule::kAtomicIo,
         what + " writes a file outside src/common/io — a crash mid-write "
                "leaves a torn file; route the write through AtomicWriteFile "
                "(common/io.h) or waive with // lint: atomic-io-ok (reason)"});
  };
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "ofstream" || s == "fstream") {
      report(t[i].line, "'std::" + s + "'");
      continue;
    }
    const bool call_like = i + 1 < t.size() && t[i + 1].text == "(";
    if ((s == "fopen" || s == "freopen") && call_like) {
      report(t[i].line, "'" + s + "()'");
      continue;
    }
    if (s == "open" && call_like) {
      // POSIX open(2) with a write/create flag inside the argument list.
      const size_t after = SkipParens(t, i + 1);
      for (size_t j = i + 2; j + 1 < after; ++j) {
        const std::string& flag = t[j].text;
        if (flag == "O_WRONLY" || flag == "O_RDWR" || flag == "O_CREAT" ||
            flag == "O_TRUNC" || flag == "O_APPEND") {
          report(t[i].line, "'open(..., " + flag + ")'");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: frozen-store — kernel code cannot mutate a built claim store
// ---------------------------------------------------------------------------

bool FrozenStoreRuleApplies(const std::string& rel) {
  return StartsWith(rel, "src/td/") || StartsWith(rel, "src/tdac/");
}

void CheckFrozenStore(const FileScan& scan, std::vector<Finding>* findings) {
  if (!FrozenStoreRuleApplies(scan.rel_path)) return;
  const std::vector<Token>& t = scan.tokens;
  auto report = [&](int line, const std::string& what) {
    if (Waived(scan, line, "frozen-store-ok")) return;
    findings->push_back(
        {scan.rel_path, line, Rule::kFrozenStore,
         what + " in kernel code mutates (or could mutate) the claim store, "
                "which is frozen after Build — this aborts at runtime via "
                "TDAC_CHECK (docs/data_layout.md); assemble new stores in "
                "src/data, or waive with // lint: frozen-store-ok (reason)"});
  };
  static const std::set<std::string> kMutators = {"AppendClaim", "CheckMutable",
                                                  "BuildIndexes",
                                                  "DatasetBuilder"};
  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (kMutators.count(s) > 0) {
      report(t[i].line, "'" + s + "'");
      continue;
    }
    // Non-const Dataset reference/pointer: a mutable handle to the store.
    if (s == "Dataset" && i + 1 < t.size() &&
        (t[i + 1].text == "&" || t[i + 1].text == "*")) {
      size_t j = i;
      while (j > 0 && (t[j - 1].text == "::" || t[j - 1].text == "tdac")) --j;
      if (j > 0 && t[j - 1].text == "const") continue;
      report(t[i].line, "non-const 'Dataset" + t[i + 1].text + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: hot-path-alloc — the *Soa columnar kernels stay allocation-light
// ---------------------------------------------------------------------------

// Normalized receiver chain (`item.values`, `out`) for the method call
// whose '.'/'->' token sits at `dot`. Empty when the receiver is not a
// plain identifier chain (e.g. `f().push_back`).
std::string ReceiverChain(const std::vector<Token>& t, size_t dot) {
  std::string chain;
  size_t k = dot;
  while (true) {
    if (k == 0) return "";
    const std::string& prev = t[k - 1].text;
    if (!IsIdentStart(prev[0])) return "";
    chain = chain.empty() ? prev : prev + "." + chain;
    if (k < 2) break;
    const std::string& link = t[k - 2].text;
    if (link == "." || link == "->") {
      k -= 2;
      continue;
    }
    break;
  }
  return chain;
}

void CheckHotPathAlloc(const FileScan& scan, const ScopeIndex& scopes,
                       std::vector<Finding>* findings) {
  if (!StartsWith(scan.rel_path, "src/")) return;
  const std::vector<Token>& t = scan.tokens;
  for (const FunctionDef& fn : scopes.functions) {
    if (!EndsWith(fn.name, "Soa") || fn.name.size() <= 3) continue;
    // Receivers reserved anywhere in this kernel's body.
    std::set<std::string> reserved;
    for (size_t i = fn.body_begin; i + 2 < fn.body_end; ++i) {
      if ((t[i].text == "." || t[i].text == "->") &&
          t[i + 1].text == "reserve" && t[i + 2].text == "(") {
        const std::string chain = ReceiverChain(t, i);
        if (!chain.empty()) reserved.insert(chain);
      }
    }
    auto report = [&](int line, const std::string& what) {
      if (Waived(scan, line, "hot-path-alloc-ok")) return;
      findings->push_back(
          {scan.rel_path, line, Rule::kHotPathAlloc,
           what + " inside columnar kernel '" + fn.name +
               "' allocates on the hot path (docs/data_layout.md); hoist "
               "the buffer, reserve first, or waive with "
               "// lint: hot-path-alloc-ok (reason)"});
    };
    for (size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
      const std::string& s = t[i].text;
      if (s == "new") {
        report(t[i].line, "'new'");
        continue;
      }
      // std::string / std::vector construction (declarations and
      // temporaries); reference/pointer bindings are exempt.
      if ((s == "string" || s == "vector") && i >= 2 &&
          t[i - 1].text == "::" && t[i - 2].text == "std") {
        size_t k = i + 1;
        if (s == "vector") {
          const size_t after = SkipAngles(t, k);
          if (after == k) continue;  // not a template use
          k = after;
        }
        if (k >= fn.body_end || k >= t.size()) continue;
        const std::string& next = t[k].text;
        if (next == "&" || next == "*" || next == "::") continue;
        if (IsIdentStart(next[0]) || next == "(" || next == "{") {
          report(t[i].line, "'std::" + s + "' construction");
        }
        continue;
      }
      // push_back/emplace_back on a receiver never reserved in this body.
      if ((s == "push_back" || s == "emplace_back") && i >= 1 &&
          (t[i - 1].text == "." || t[i - 1].text == "->")) {
        const std::string chain = ReceiverChain(t, i - 1);
        if (chain.empty()) continue;  // call-chain receiver: can't resolve
        if (reserved.count(chain) > 0) continue;
        report(t[i].line, "'" + chain + "." + s + "' without a reserve");
      }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& Registry() {
  static const std::vector<RuleInfo> kRules = {
      {Rule::kNodiscard, "nodiscard", "nodiscard-ok",
       "header Status/Result<T> returns carry [[nodiscard]]"},
      {Rule::kUnordered, "unordered", "unordered-ok",
       "no order-dependent unordered-container iteration under src/"},
      {Rule::kRandom, "random", "random-ok",
       "all randomness flows through src/common/random.*"},
      {Rule::kThrow, "throw", "throw-ok",
       "no `throw` in public API headers (src/td, src/partition)"},
      {Rule::kClaimValue, "claim-value", "claim-value-ok",
       "src/ reads the columnar store, not per-claim Claim copies"},
      {Rule::kGuard, "guard", "guard-ok",
       "fixpoint loops in src/td|tdac|partition consult their RunGuard"},
      {Rule::kAtomicIo, "atomic-io", "atomic-io-ok",
       "file writes route through AtomicWriteFile (src/common/io)"},
      {Rule::kFrozenStore, "frozen-store", "frozen-store-ok",
       "kernel code never mutates the frozen claim store"},
      {Rule::kHotPathAlloc, "hot-path-alloc", "hot-path-alloc-ok",
       "*Soa columnar kernels stay allocation-light"},
      {Rule::kScratchPath, "scratch-path", "scratch-path-ok",
       "tests take scratch paths from testutil::ScratchDir, not TempDir()"},
      {Rule::kCheckpointCodec, "checkpoint-codec", "checkpoint-codec-ok",
       "checkpoint payloads use PayloadWriter/PayloadReader, not HexDouble"},
      {Rule::kStaleWaiver, "stale-waiver", nullptr,
       "every `<rule>-ok` waiver still suppresses a finding"},
  };
  return kRules;
}

const char* RuleName(Rule r) {
  for (const RuleInfo& info : Registry()) {
    if (info.rule == r) return info.name;
  }
  return "?";
}

bool UnorderedRuleApplies(const std::string& rel) {
  return StartsWith(rel, "src/");
}

void RunRules(const FileScan& scan, const LintContext& context,
              std::vector<Finding>* findings) {
  static const ScopeIndex kEmptyScopes;
  auto scope_it = context.scopes.find(scan.rel_path);
  const ScopeIndex& scopes =
      scope_it != context.scopes.end() ? scope_it->second : kEmptyScopes;
  CheckNodiscard(scan, findings);
  CheckUnordered(scan, context.unordered_names, findings);
  CheckRandom(scan, findings);
  CheckThrow(scan, findings);
  CheckClaimValue(scan, findings);
  CheckGuard(scan, findings);
  CheckAtomicIo(scan, findings);
  CheckFrozenStore(scan, findings);
  CheckHotPathAlloc(scan, scopes, findings);
  CheckScratchPath(scan, findings);
  CheckCheckpointCodec(scan, findings);
}

void AuditWaivers(const FileScan& scan, std::vector<Finding>* findings) {
  std::set<std::string> known;
  for (const RuleInfo& info : Registry()) {
    if (info.waiver != nullptr) known.insert(info.waiver);
  }
  for (const auto& [line, tags] : scan.waivers) {
    for (const std::string& tag : tags) {
      if (!EndsWith(tag, "-ok")) continue;  // prose, not a waiver
      if (known.count(tag) == 0) {
        findings->push_back(
            {scan.rel_path, line, Rule::kStaleWaiver,
             "waiver '" + tag + "' names no known rule (tags: see "
             "docs/static_analysis.md); fix the tag or delete the waiver"});
        continue;
      }
      if (scan.used_waivers.count({line, tag}) == 0) {
        findings->push_back(
            {scan.rel_path, line, Rule::kStaleWaiver,
             "waiver '" + tag + "' no longer suppresses any finding; delete "
             "it (stale waivers read as live hazards and rot the corpus)"});
      }
    }
  }
}

}  // namespace tdac_lint
