// tdac_lint scope index: a lightweight declaration index over the blanked
// token stream.
//
// Two cross-cutting structures the token-local rules cannot derive on
// their own:
//
//   * `ScopeIndex` — every function *definition* in a file, with its name
//     and the [body_begin, body_end) token range of the braced body. Built
//     by paren/brace matching only (no type resolution), which is exact
//     enough for the hot-path-alloc rule to scope itself to the `*Soa`
//     columnar kernels, and cheap enough to run on every file.
//
//   * `UnorderedNames` — names of variables/members/accessors whose type
//     is an unordered container, collected across all scanned files so the
//     unordered-iteration rule can flag a range-for in a .cc over a member
//     declared in the sibling .h.
#ifndef TDAC_TOOLS_LINT_LINT_INDEX_H_
#define TDAC_TOOLS_LINT_LINT_INDEX_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint_scan.h"

namespace tdac_lint {

struct FunctionDef {
  std::string name;        // unqualified (last identifier before the parens)
  size_t body_begin = 0;   // token index of the opening '{'
  size_t body_end = 0;     // one past the matching '}'
  int line = 0;            // line of the name token
};

struct ScopeIndex {
  std::vector<FunctionDef> functions;
};

// Finds function definitions by matching `name ( ... ) [quals] {`.
// Control-flow keywords, lambdas, and constructors with init lists are
// skipped (none of them are the named kernels the rules scope to).
ScopeIndex BuildScopeIndex(const FileScan& scan);

struct UnorderedNames {
  // Cross-file: trailing-underscore members and accessor functions returning
  // unordered containers (visible through headers).
  std::set<std::string> global_vars;
  std::set<std::string> global_fns;
  // Cross-file: public struct members declared in any header — structs
  // travel far from the header that declares them, so these are visible
  // tree-wide.
  std::set<std::string> header_vars;
  // Per file (locals, params, members declared in a .cc): rel_path -> names.
  std::map<std::string, std::set<std::string>> file_vars;
};

// Harvests unordered-container names declared in `scan` (when the
// unordered rule applies to its path) into `names`.
void CollectUnorderedNames(const FileScan& scan, UnorderedNames* names);

}  // namespace tdac_lint

#endif  // TDAC_TOOLS_LINT_LINT_INDEX_H_
