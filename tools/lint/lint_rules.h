// tdac_lint rule registry: the eleven invariant rules plus the stale-waiver
// audit, over the FileScan/ScopeIndex layers.
//
// Each rule is a pure function of the scan (plus the cross-file context)
// appending Findings; the driver owns ordering, output format, and exit
// codes. docs/static_analysis.md is the authoritative contract; the
// one-line summaries live in Registry() so `tdac_lint --list-rules` and
// the docs cannot drift apart silently.
#ifndef TDAC_TOOLS_LINT_LINT_RULES_H_
#define TDAC_TOOLS_LINT_LINT_RULES_H_

#include <map>
#include <string>
#include <vector>

#include "lint_index.h"
#include "lint_scan.h"

namespace tdac_lint {

enum class Rule {
  kNodiscard,
  kUnordered,
  kRandom,
  kThrow,
  kClaimValue,
  kGuard,
  kAtomicIo,
  kFrozenStore,
  kHotPathAlloc,
  kScratchPath,
  kCheckpointCodec,
  kStaleWaiver,  // emitted by the audit, not a scan rule
};

struct RuleInfo {
  Rule rule;
  const char* name;    // finding tag, e.g. "guard"
  const char* waiver;  // waiver tag, e.g. "guard-ok" (nullptr: not waivable)
  const char* summary; // one line for --list-rules
};

// All rules, in severity-neutral registration order. kStaleWaiver is last
// and has no waiver tag (an unused waiver is fixed by deleting it).
const std::vector<RuleInfo>& Registry();

const char* RuleName(Rule r);

struct Finding {
  std::string file;  // root-relative, forward slashes
  int line = 0;
  Rule rule = Rule::kNodiscard;
  std::string message;
};

// Cross-file context shared by the per-file checks.
struct LintContext {
  UnorderedNames unordered_names;
  // rel_path -> scope index (built once per file by the driver).
  std::map<std::string, ScopeIndex> scopes;
};

// True for paths the unordered-iteration rule covers (all of src/ — the
// determinism invariant is tree-wide; see docs/static_analysis.md).
bool UnorderedRuleApplies(const std::string& rel);

// Runs every scan rule over one file.
void RunRules(const FileScan& scan, const LintContext& context,
              std::vector<Finding>* findings);

// The stale-waiver audit: after RunRules ran over *all* scans, any
// `<rule>-ok` waiver that never suppressed a finding (or names no known
// rule) is itself a finding — dead waivers rot into false documentation.
void AuditWaivers(const FileScan& scan, std::vector<Finding>* findings);

}  // namespace tdac_lint

#endif  // TDAC_TOOLS_LINT_LINT_RULES_H_
