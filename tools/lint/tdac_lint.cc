// tdac_lint — dependency-free static-analysis driver for repo-specific
// invariants.
//
// The library's headline guarantees (bit-identical results at any thread
// count, no exceptions across the public API, reproducible randomness,
// deadline-bounded loops, torn-write-free files, a frozen claim store,
// allocation-light columnar kernels, per-test scratch paths) rest on
// source-level conventions the compiler cannot check by itself. This tool
// enforces them at token level — no libclang, no build — so the check runs
// in milliseconds on the whole tree and in CI's lint job, before any
// fixpoint loop ever runs.
//
// The engine is three passes (tools/lint/):
//   lint_scan   blanks comments/strings/preprocessor lines, tokenizes,
//               harvests `// lint: <rule>-ok` waivers
//   lint_index  cross-file unordered-container names + per-file function
//               scope index (the *Soa kernel extents)
//   lint_rules  the eleven rules (see docs/static_analysis.md for the full
//               contract and `tdac_lint --list-rules` for one-liners)
//
// Usage:
//   tdac_lint [--root DIR] [--format=text|json] [--diff BASE]
//             [--audit-waivers] [--list-rules] [relative-files...]
//
// With no file arguments, scans DIR/{src,tools,bench,tests} recursively
// (skipping tests/lint_fixtures/, which contains deliberate violations).
// `--diff BASE` reports only findings on lines changed vs. the git ref
// BASE (fast pre-push mode; the whole tree is still scanned so cross-file
// context stays exact). `--audit-waivers` additionally errors on waivers
// that no longer suppress anything. Exit status: 0 clean, 1 findings,
// 2 usage/IO error.

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint_index.h"
#include "lint_rules.h"
#include "lint_scan.h"

namespace {

namespace fs = std::filesystem;
using tdac_lint::FileScan;
using tdac_lint::Finding;
using tdac_lint::LintContext;
using tdac_lint::RuleName;

bool ScannableFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

std::string RelPath(const fs::path& abs, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(abs, root, ec);
  std::string s = (ec ? abs : rel).generic_string();
  return s;
}

int Usage() {
  std::cerr << "usage: tdac_lint [--root DIR] [--format=text|json] "
               "[--diff BASE] [--audit-waivers] [--list-rules] "
               "[relative-files...]\n";
  return 2;
}

// ---------------------------------------------------------------------------
// --diff BASE: changed-line sets from `git diff -U0`
// ---------------------------------------------------------------------------

// file -> set of line numbers added/modified vs. the base ref. False on
// git failure (not a repo, unknown ref).
bool ChangedLines(const fs::path& root, const std::string& base,
                  std::map<std::string, std::set<int>>* out) {
  const std::string cmd = "git -C '" + root.string() +
                          "' diff --unified=0 --no-color '" + base +
                          "' -- src tools bench tests 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  std::string current_file;
  std::array<char, 4096> buf;
  std::string pending;
  auto handle_line = [&](const std::string& line) {
    if (tdac_lint::StartsWith(line, "+++ b/")) {
      current_file = line.substr(6);
      return;
    }
    if (tdac_lint::StartsWith(line, "+++ ")) {
      current_file.clear();  // deletion (+++ /dev/null)
      return;
    }
    if (!tdac_lint::StartsWith(line, "@@ ") || current_file.empty()) return;
    // @@ -a[,b] +c[,d] @@ — the new-file side is what we scan.
    const size_t plus = line.find('+');
    if (plus == std::string::npos) return;
    int start = 0;
    int count = 1;
    size_t i = plus + 1;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
      start = start * 10 + (line[i] - '0');
      ++i;
    }
    if (i < line.size() && line[i] == ',') {
      ++i;
      count = 0;
      while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
        count = count * 10 + (line[i] - '0');
        ++i;
      }
    }
    for (int l = start; l < start + count; ++l) {
      (*out)[current_file].insert(l);
    }
  };
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    pending += buf.data();
    size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      handle_line(pending.substr(0, nl));
      pending.erase(0, nl + 1);
    }
  }
  const int status = pclose(pipe);
  if (!pending.empty()) handle_line(pending);
  return status == 0;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* WaiverTag(tdac_lint::Rule rule) {
  for (const tdac_lint::RuleInfo& info : tdac_lint::Registry()) {
    if (info.rule == rule) return info.waiver != nullptr ? info.waiver : "";
  }
  return "";
}

void PrintText(const std::vector<Finding>& findings, size_t files_scanned,
               const std::string& diff_base) {
  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << RuleName(f.rule) << "] "
              << f.message << "\n";
  }
  const std::string scope =
      diff_base.empty() ? "" : " (changed lines vs. " + diff_base + ")";
  if (!findings.empty()) {
    std::cout << "tdac_lint: " << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s") << " in " << files_scanned
              << " files" << scope << "\n";
  } else {
    std::cout << "tdac_lint: OK (" << files_scanned << " files" << scope
              << ")\n";
  }
}

void PrintJson(const std::vector<Finding>& findings, size_t files_scanned,
               const std::string& diff_base) {
  std::cout << "{\n";
  std::cout << "  \"version\": 1,\n";
  std::cout << "  \"files_scanned\": " << files_scanned << ",\n";
  std::cout << "  \"diff_base\": \"" << JsonEscape(diff_base) << "\",\n";
  std::cout << "  \"count\": " << findings.size() << ",\n";
  std::cout << "  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::cout << (i == 0 ? "\n" : ",\n");
    std::cout << "    {\"file\": \"" << JsonEscape(f.file)
              << "\", \"line\": " << f.line << ", \"rule\": \""
              << RuleName(f.rule) << "\", \"waiver\": \""
              << WaiverTag(f.rule) << "\", \"message\": \""
              << JsonEscape(f.message) << "\"}";
  }
  std::cout << (findings.empty() ? "]\n" : "\n  ]\n");
  std::cout << "}\n";
}

int ListRules() {
  for (const tdac_lint::RuleInfo& info : tdac_lint::Registry()) {
    std::printf("%-14s %-18s %s\n", info.name,
                info.waiver != nullptr ? info.waiver : "-", info.summary);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<std::string> explicit_files;
  std::string format = "text";
  std::string diff_base;
  bool audit_waivers = false;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg == "--help" || arg == "-h") return Usage();
    if (arg == "--list-rules") return ListRules();
    if (arg == "--audit-waivers") {
      audit_waivers = true;
    } else if (arg == "--root") {
      if (a + 1 >= argc) return Usage();
      root = argv[++a];
    } else if (tdac_lint::StartsWith(arg, "--root=")) {
      root = arg.substr(7);
    } else if (arg == "--format") {
      if (a + 1 >= argc) return Usage();
      format = argv[++a];
    } else if (tdac_lint::StartsWith(arg, "--format=")) {
      format = arg.substr(9);
    } else if (arg == "--diff") {
      if (a + 1 >= argc) return Usage();
      diff_base = argv[++a];
    } else if (tdac_lint::StartsWith(arg, "--diff=")) {
      diff_base = arg.substr(7);
    } else if (tdac_lint::StartsWith(arg, "--")) {
      std::cerr << "tdac_lint: unknown flag: " << arg << "\n";
      return Usage();
    } else {
      explicit_files.push_back(arg);
    }
  }
  if (format != "text" && format != "json") {
    std::cerr << "tdac_lint: --format must be text or json\n";
    return Usage();
  }
  std::error_code ec;
  root = fs::canonical(root, ec);
  if (ec) {
    std::cerr << "tdac_lint: bad --root: " << ec.message() << "\n";
    return 2;
  }

  std::map<std::string, std::set<int>> changed;
  if (!diff_base.empty() && !ChangedLines(root, diff_base, &changed)) {
    std::cerr << "tdac_lint: git diff against '" << diff_base
              << "' failed (not a git checkout, or unknown ref)\n";
    return 2;
  }

  std::vector<fs::path> files;
  if (!explicit_files.empty()) {
    for (const std::string& f : explicit_files) {
      fs::path p = fs::path(f).is_absolute() ? fs::path(f) : root / f;
      if (!fs::exists(p)) {
        std::cerr << "tdac_lint: no such file: " << p << "\n";
        return 2;
      }
      files.push_back(p);
    }
  } else {
    for (const char* dir : {"src", "tools", "bench", "tests"}) {
      fs::path d = root / dir;
      if (!fs::exists(d)) continue;
      for (fs::recursive_directory_iterator it(d), end; it != end; ++it) {
        const std::string rel = RelPath(it->path(), root);
        if (it->is_directory() &&
            (tdac_lint::EndsWith(rel, "lint_fixtures") ||
             tdac_lint::StartsWith(rel, "build"))) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && ScannableFile(it->path())) {
          files.push_back(it->path());
        }
      }
    }
    std::sort(files.begin(), files.end());
  }

  std::vector<FileScan> scans;
  scans.reserve(files.size());
  for (const fs::path& p : files) {
    FileScan scan;
    if (!tdac_lint::LoadFile(p, RelPath(p, root), &scan)) {
      std::cerr << "tdac_lint: cannot read " << p << "\n";
      return 2;
    }
    scans.push_back(std::move(scan));
  }

  LintContext context;
  for (const FileScan& s : scans) {
    if (tdac_lint::UnorderedRuleApplies(s.rel_path)) {
      tdac_lint::CollectUnorderedNames(s, &context.unordered_names);
    }
    context.scopes.emplace(s.rel_path, tdac_lint::BuildScopeIndex(s));
  }

  std::vector<Finding> findings;
  for (const FileScan& s : scans) {
    tdac_lint::RunRules(s, context, &findings);
  }
  // The audit runs after every rule consulted Waived(): only then is
  // "never suppressed anything" a fact rather than an ordering artifact.
  if (audit_waivers) {
    for (const FileScan& s : scans) {
      tdac_lint::AuditWaivers(s, &findings);
    }
  }

  if (!diff_base.empty()) {
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding& f) {
                                    auto it = changed.find(f.file);
                                    return it == changed.end() ||
                                           it->second.count(f.line) == 0;
                                  }),
                   findings.end());
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return std::string(RuleName(a.rule)) < RuleName(b.rule);
            });
  if (format == "json") {
    PrintJson(findings, scans.size(), diff_base);
  } else {
    PrintText(findings, scans.size(), diff_base);
  }
  return findings.empty() ? 0 : 1;
}
