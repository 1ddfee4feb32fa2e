// End-to-end tests for tools/lint/tdac_lint.cc, driven through the real
// binary (no linking against the tool): each test shells out to
// TDAC_LINT_BIN against the fixture corpus under tests/lint_fixtures/ and
// asserts on exit codes and the `file:line: [rule]` lines it prints.
//
// The fixture tree mirrors the real layout (src/td/, src/partition/, ...)
// because the unordered/throw/random rules are path-scoped; pointing
// --root at the corpus makes the same path predicates apply.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace tdac {
namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
  std::vector<std::string> lines;
};

std::string LintBinary() {
  const char* bin = std::getenv("TDAC_LINT_BIN");
  return bin != nullptr ? bin : TDAC_LINT_BIN;
}

// Runs `tdac_lint --root <root> [args...]` and captures stdout+stderr.
// `args` mixes flags (--format=json, --audit-waivers, --diff BASE) and
// relative file paths; the driver sorts them out.
LintRun RunLint(const std::string& root,
                const std::vector<std::string>& args = {}) {
  std::string cmd = "'" + LintBinary() + "' --root '" + root + "'";
  for (const std::string& a : args) cmd += " '" + a + "'";
  cmd += " 2>&1";

  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    run.output += buf.data();
  }
  int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;

  std::istringstream iss(run.output);
  std::string line;
  while (std::getline(iss, line)) {
    if (!line.empty()) run.lines.push_back(line);
  }
  return run;
}

int CountFindings(const LintRun& run, const std::string& file,
                  const std::string& rule) {
  int n = 0;
  for (const std::string& line : run.lines) {
    // Anchored at the start: messages may name other files.
    if (line.rfind(file + ":", 0) == 0 &&
        line.find("[" + rule + "]") != std::string::npos) {
      ++n;
    }
  }
  return n;
}

bool HasFindingAt(const LintRun& run, const std::string& file, int line_no,
                  const std::string& rule) {
  std::string prefix = file + ":" + std::to_string(line_no) + ": ";
  for (const std::string& line : run.lines) {
    if (line.rfind(prefix, 0) == 0 &&
        line.find("[" + rule + "]") != std::string::npos) {
      return true;
    }
  }
  return false;
}

class TdacLintTest : public ::testing::Test {
 protected:
  static const LintRun& CorpusRun() {
    static const LintRun run = RunLint(TDAC_LINT_FIXTURES);
    return run;
  }
};

TEST_F(TdacLintTest, CorpusScanFindsViolationsAndExitsNonZero) {
  const LintRun& run = CorpusRun();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("findings"), std::string::npos) << run.output;
}

TEST_F(TdacLintTest, NodiscardRule) {
  const LintRun& run = CorpusRun();
  EXPECT_EQ(CountFindings(run, "src/td/nodiscard_violation.h", "nodiscard"), 2)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/td/nodiscard_violation.h", 10,
                           "nodiscard"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/td/nodiscard_violation.h", 14,
                           "nodiscard"))
      << run.output;
  // Annotated declarations, waivers, references, locals, and lambdas in the
  // companion fixture must all pass.
  EXPECT_EQ(CountFindings(run, "src/td/nodiscard_ok.h", "nodiscard"), 0)
      << run.output;
}

TEST_F(TdacLintTest, UnorderedRule) {
  const LintRun& run = CorpusRun();
  // Range-for over a member, over an accessor call, and explicit .begin().
  EXPECT_EQ(CountFindings(run, "src/td/unordered_violation.cc", "unordered"),
            3)
      << run.output;
  EXPECT_TRUE(
      HasFindingAt(run, "src/td/unordered_violation.cc", 15, "unordered"))
      << run.output;
  EXPECT_TRUE(
      HasFindingAt(run, "src/td/unordered_violation.cc", 16, "unordered"))
      << run.output;
  EXPECT_TRUE(
      HasFindingAt(run, "src/td/unordered_violation.cc", 17, "unordered"))
      << run.output;
  // Same-line and previous-line waivers plus ordered containers: clean.
  EXPECT_EQ(CountFindings(run, "src/td/unordered_waived.cc", "unordered"), 0)
      << run.output;
}

TEST_F(TdacLintTest, UnorderedRuleSeesSiblingHeaderDeclarations) {
  const LintRun& run = CorpusRun();
  // The unordered_map member is declared in sibling_pair.h; the iteration
  // in sibling_pair.cc must still be caught via .h/.cc name sharing.
  EXPECT_TRUE(
      HasFindingAt(run, "src/partition/sibling_pair.cc", 9, "unordered"))
      << run.output;
  EXPECT_EQ(CountFindings(run, "src/partition/sibling_pair.h", "unordered"),
            0)
      << run.output;
}

TEST_F(TdacLintTest, RandomRule) {
  const LintRun& run = CorpusRun();
  // srand + time(0) seeding + random_device + mt19937 + rand.
  EXPECT_EQ(CountFindings(run, "src/gen/random_violation.cc", "random"), 5)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/gen/random_violation.cc", 11, "random"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/gen/random_violation.cc", 14, "random"))
      << run.output;
  // Waived entropy, wall-clock time(), and "rand" inside words: clean.
  EXPECT_EQ(CountFindings(run, "src/gen/random_ok.cc", "random"), 0)
      << run.output;
  // src/common/random.* is the designated home for raw entropy.
  EXPECT_EQ(CountFindings(run, "src/common/random.cc", "random"), 0)
      << run.output;
}

TEST_F(TdacLintTest, ThrowRule) {
  const LintRun& run = CorpusRun();
  EXPECT_TRUE(HasFindingAt(run, "src/td/throw_violation.h", 10, "throw"))
      << run.output;
  EXPECT_EQ(CountFindings(run, "src/td/throw_violation.h", "throw"), 1)
      << run.output;
  // Comments, string literals, and the waived rethrow helper: clean.
  EXPECT_EQ(CountFindings(run, "src/td/throw_ok.h", "throw"), 0)
      << run.output;
}

TEST_F(TdacLintTest, ClaimValueRule) {
  const LintRun& run = CorpusRun();
  // `store.claim(i)` via reference and `store->claim(i)` via pointer; the
  // columnar tally (num_claims/claim_sources) in the same file is clean.
  EXPECT_EQ(
      CountFindings(run, "src/td/claim_value_violation.cc", "claim-value"), 2)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/td/claim_value_violation.cc", 29,
                           "claim-value"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/td/claim_value_violation.cc", 38,
                           "claim-value"))
      << run.output;
  // Same-line and line-above reasoned waivers: clean.
  EXPECT_EQ(CountFindings(run, "src/td/claim_value_waived.cc", "claim-value"),
            0)
      << run.output;
  // The rule covers every .cc under src/, readers outside the kernel
  // directories included; the columnar read beside the row read is clean.
  EXPECT_EQ(
      CountFindings(run, "src/eval/claim_value_violation.cc", "claim-value"),
      1)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/eval/claim_value_violation.cc", 30,
                           "claim-value"))
      << run.output;
}

TEST_F(TdacLintTest, ScratchPathRule) {
  const LintRun& run = CorpusRun();
  // testing::TempDir() and ::testing::TempDir(); the waived mkdtemp
  // template and the mention in a comment are clean.
  EXPECT_EQ(
      CountFindings(run, "tests/scratch_path_violation.cc", "scratch-path"), 2)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "tests/scratch_path_violation.cc", 7,
                           "scratch-path"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "tests/scratch_path_violation.cc", 11,
                           "scratch-path"))
      << run.output;
  // tests/test_util.h is ScratchDir's home and may call TempDir().
  EXPECT_EQ(CountFindings(run, "tests/test_util.h", "scratch-path"), 0)
      << run.output;
}

TEST_F(TdacLintTest, GuardRule) {
  const LintRun& run = CorpusRun();
  // Unguarded for-with-iteration-marker, while(improved), and while(true).
  EXPECT_EQ(CountFindings(run, "src/tdac/guard_violation.cc", "guard"), 3)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/tdac/guard_violation.cc", 8, "guard"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/tdac/guard_violation.cc", 12, "guard"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/tdac/guard_violation.cc", 15, "guard"))
      << run.output;
  // Guard-consulting loop, plain count loop, and a waived bounded loop.
  EXPECT_EQ(CountFindings(run, "src/tdac/guard_ok.cc", "guard"), 0)
      << run.output;
}

TEST_F(TdacLintTest, AtomicIoRule) {
  const LintRun& run = CorpusRun();
  // std::ofstream, fopen(), and open(..., O_WRONLY).
  EXPECT_EQ(
      CountFindings(run, "src/common/atomic_io_violation.cc", "atomic-io"), 3)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/common/atomic_io_violation.cc", 11,
                           "atomic-io"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/common/atomic_io_violation.cc", 13,
                           "atomic-io"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/common/atomic_io_violation.cc", 15,
                           "atomic-io"))
      << run.output;
  // Read-only I/O and a reasoned waiver: clean.
  EXPECT_EQ(CountFindings(run, "src/common/atomic_io_ok.cc", "atomic-io"), 0)
      << run.output;
  // src/common/io.* is the designated home for raw writes.
  EXPECT_EQ(CountFindings(run, "src/common/io.cc", "atomic-io"), 0)
      << run.output;
  // The serving layer is NOT a carve-out: an unjournaled ofstream in
  // src/serve is flagged like anywhere else, and only the journal-style
  // reasoned waiver on the line above suppresses the append-mode one.
  EXPECT_EQ(
      CountFindings(run, "src/serve/unjournaled_write.cc", "atomic-io"), 1)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/serve/unjournaled_write.cc", 12,
                           "atomic-io"))
      << run.output;
}

TEST_F(TdacLintTest, CheckpointCodecRule) {
  const LintRun& run = CorpusRun();
  // HexDouble and ParseHexDouble in a hand-rolled payload.
  EXPECT_EQ(CountFindings(run, "src/partition/checkpoint_codec_violation.cc",
                          "checkpoint-codec"),
            2)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/partition/checkpoint_codec_violation.cc",
                           12, "checkpoint-codec"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/partition/checkpoint_codec_violation.cc",
                           17, "checkpoint-codec"))
      << run.output;
  // PayloadWriter and a reasoned waiver: clean.
  EXPECT_EQ(CountFindings(run, "src/partition/checkpoint_codec_ok.cc",
                          "checkpoint-codec"),
            0)
      << run.output;
  // src/common/checkpoint.* is the codec's home.
  EXPECT_EQ(
      CountFindings(run, "src/common/checkpoint.cc", "checkpoint-codec"), 0)
      << run.output;
}

TEST_F(TdacLintTest, FrozenStoreRule) {
  const LintRun& run = CorpusRun();
  // Non-const Dataset& and Dataset*, AppendClaim, DatasetBuilder.
  EXPECT_EQ(
      CountFindings(run, "src/tdac/frozen_store_violation.cc", "frozen-store"),
      4)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/tdac/frozen_store_violation.cc", 6,
                           "frozen-store"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/tdac/frozen_store_violation.cc", 9,
                           "frozen-store"))
      << run.output;
  // const handles (plain and namespace-qualified) and a waived assembler.
  EXPECT_EQ(CountFindings(run, "src/tdac/frozen_store_ok.cc", "frozen-store"),
            0)
      << run.output;
}

TEST_F(TdacLintTest, HotPathAllocRule) {
  const LintRun& run = CorpusRun();
  // Construction, unreserved push_back, std::string, and raw new inside
  // TallySoa — and nothing from the identical non-Soa TallyRows below it.
  EXPECT_EQ(CountFindings(run, "src/td/hot_path_alloc_violation.cc",
                          "hot-path-alloc"),
            4)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/td/hot_path_alloc_violation.cc", 10,
                           "hot-path-alloc"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/td/hot_path_alloc_violation.cc", 12,
                           "hot-path-alloc"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/td/hot_path_alloc_violation.cc", 15,
                           "hot-path-alloc"))
      << run.output;
  // Reserved buffers, reference bindings, and a waived scratch buffer.
  EXPECT_EQ(CountFindings(run, "src/td/hot_path_alloc_ok.cc",
                          "hot-path-alloc"),
            0)
      << run.output;
}

TEST_F(TdacLintTest, NodiscardWaiverAttachesToMultilineDeclarations) {
  const LintRun& run = CorpusRun();
  // Flush: waiver above the `virtual` line suppresses the finding even
  // though the Status token sits one line further down. Persist: flagged
  // at the return-type line.
  EXPECT_EQ(CountFindings(run, "src/td/nodiscard_multiline.h", "nodiscard"),
            1)
      << run.output;
  EXPECT_TRUE(
      HasFindingAt(run, "src/td/nodiscard_multiline.h", 19, "nodiscard"))
      << run.output;
}

TEST_F(TdacLintTest, StaleWaiverAuditFlagsDeadAndUnknownWaivers) {
  LintRun run = RunLint(TDAC_LINT_FIXTURES,
                        {"--audit-waivers", "src/td/stale_waiver.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // The live unordered waiver is not flagged; the dead random-ok and the
  // unknown foobar-ok are.
  EXPECT_EQ(CountFindings(run, "src/td/stale_waiver.cc", "stale-waiver"), 2)
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/td/stale_waiver.cc", 15, "stale-waiver"))
      << run.output;
  EXPECT_TRUE(HasFindingAt(run, "src/td/stale_waiver.cc", 17, "stale-waiver"))
      << run.output;
  EXPECT_EQ(CountFindings(run, "src/td/stale_waiver.cc", "unordered"), 0)
      << run.output;
}

TEST_F(TdacLintTest, AuditIsOffByDefault) {
  LintRun run = RunLint(TDAC_LINT_FIXTURES, {"src/td/stale_waiver.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(TdacLintTest, JsonFormat) {
  LintRun run = RunLint(TDAC_LINT_FIXTURES,
                        {"--format=json", "src/td/throw_violation.h"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("\"version\": 1"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"count\": 1"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("\"file\": \"src/td/throw_violation.h\""),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"line\": 10"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("\"rule\": \"throw\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"waiver\": \"throw-ok\""), std::string::npos)
      << run.output;
}

TEST_F(TdacLintTest, JsonFormatCleanFileHasZeroCount) {
  LintRun run =
      RunLint(TDAC_LINT_FIXTURES, {"--format=json", "src/td/throw_ok.h"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"count\": 0"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("\"findings\": []"), std::string::npos)
      << run.output;
}

TEST_F(TdacLintTest, ListRulesPrintsAllTwelve) {
  LintRun run = RunLint(TDAC_LINT_FIXTURES, {"--list-rules"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  for (const char* rule :
       {"nodiscard", "unordered", "random", "throw", "claim-value", "guard",
        "atomic-io", "frozen-store", "hot-path-alloc", "scratch-path",
        "checkpoint-codec", "stale-waiver"}) {
    EXPECT_NE(run.output.find(rule), std::string::npos)
        << rule << "\n" << run.output;
  }
}

TEST_F(TdacLintTest, DiffModeReportsOnlyChangedLines) {
  // Build a throwaway git repo: one committed violation, then a second
  // one added on top. --diff HEAD must report only the new line.
  // lint: scratch-path-ok (mkdtemp template, unique by construction)
  std::string tmpl = ::testing::TempDir() + "tdac_lint_diff_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  ASSERT_NE(mkdtemp(buf.data()), nullptr);
  const std::string root(buf.data());
  auto sh = [&](const std::string& cmd) {
    const std::string full = "cd '" + root + "' && " + cmd + " >/dev/null 2>&1";
    return std::system(full.c_str());
  };
  auto write_file = [&](const std::string& rel, const std::string& text) {
    std::ofstream out(root + "/" + rel, std::ios::trunc);
    out << text;
  };
  ASSERT_EQ(sh("git init -q . && git config user.email t@t && "
               "git config user.name t && mkdir -p src/gen"),
            0);
  write_file("src/gen/seeded.cc",
             "namespace tdac {\n"
             "int Base() { return rand(); }\n"
             "}  // namespace tdac\n");
  ASSERT_EQ(sh("git add -A && git commit -qm base"), 0);
  write_file("src/gen/seeded.cc",
             "namespace tdac {\n"
             "int Base() { return rand(); }\n"
             "int Fresh() { return rand(); }\n"
             "}  // namespace tdac\n");

  LintRun diff_run = RunLint(root, {"--diff", "HEAD"});
  EXPECT_EQ(diff_run.exit_code, 1) << diff_run.output;
  EXPECT_EQ(CountFindings(diff_run, "src/gen/seeded.cc", "random"), 1)
      << diff_run.output;
  EXPECT_TRUE(HasFindingAt(diff_run, "src/gen/seeded.cc", 3, "random"))
      << diff_run.output;

  // Without --diff both violations surface.
  LintRun full_run = RunLint(root);
  EXPECT_EQ(CountFindings(full_run, "src/gen/seeded.cc", "random"), 2)
      << full_run.output;

  // An unknown ref is a usage error, not a silent full scan.
  LintRun bad_ref = RunLint(root, {"--diff", "no-such-ref"});
  EXPECT_EQ(bad_ref.exit_code, 2) << bad_ref.output;

  sh("cd / && rm -rf '" + root + "'");
}

TEST_F(TdacLintTest, ExplicitFileListScansOnlyThoseFiles) {
  LintRun run =
      RunLint(TDAC_LINT_FIXTURES, {"src/td/throw_violation.h"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountFindings(run, "src/td/throw_violation.h", "throw"), 1)
      << run.output;
  EXPECT_EQ(CountFindings(run, "src/gen/random_violation.cc", "random"), 0)
      << run.output;
}

TEST_F(TdacLintTest, CleanExplicitFileExitsZero) {
  LintRun run = RunLint(TDAC_LINT_FIXTURES, {"src/td/throw_ok.h"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(TdacLintTest, MissingFileExitsWithUsageError) {
  LintRun run = RunLint(TDAC_LINT_FIXTURES, {"src/td/does_not_exist.h"});
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

// The gate the CI lint job enforces: the real tree must stay clean, and
// every waiver in it must still suppress something. Any finding here means
// a change landed without its annotation, or left a waiver behind.
TEST_F(TdacLintTest, RealTreeSelfCheckIsClean) {
  LintRun run = RunLint(TDAC_SOURCE_ROOT, {"--audit-waivers"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("OK"), std::string::npos) << run.output;
}

}  // namespace
}  // namespace tdac
