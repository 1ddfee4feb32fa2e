// tdac_cli end to end: `run --truth` runs the algorithm once, so the
// metrics table and every output file come from the same result and the
// run's deadline and iteration budget are spent on it alone.
//
// The CLI binary path is baked in at configure time as TDAC_CLI_BIN.

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/run_guard.h"
#include "data/dataset_io.h"
#include "td/registry.h"
#include "tdac/tdac.h"
#include "test_util.h"

namespace tdac {
namespace {

/// Runs the CLI with `args` (stdout and stderr discarded); its exit code.
int RunCli(const std::string& args) {
  const std::string command =
      std::string(TDAC_CLI_BIN) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadAll(const std::string& path) {
  auto text = ReadFileToString(path);
  EXPECT_TRUE(text.ok()) << text.status();
  return text.ok() ? text.value() : std::string();
}

/// Runs the CLI with `args`; its exit code, with stderr (via `err_path`)
/// left in `*err`.
int RunCliStderr(const std::string& args, const std::string& err_path,
                 std::string* err) {
  const std::string command = std::string(TDAC_CLI_BIN) + " " + args +
                              " > /dev/null 2> " + err_path;
  const int status = std::system(command.c_str());
  *err = ReadAll(err_path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliTest, TruthRunSpendsTheIterationBudgetOnce) {
  testutil::ScratchDir scratch;
  const std::string claims = scratch.path() + "/claims.csv";
  const std::string truth = scratch.path() + "/truth.csv";
  // ds2 is noisy enough that Accu's answer still moves after its first
  // iterations, so a run cut short by a spent budget writes different bytes.
  ASSERT_EQ(RunCli("generate --dataset=ds2 --objects=200 --seed=42"
                   " --out-claims=" + claims + " --out-truth=" + truth),
            0);

  // How many iterations one TD-AC(F=Accu) run spends from a guard's budget.
  auto data = LoadDataset(claims);
  ASSERT_TRUE(data.ok()) << data.status();
  auto base = MakeAlgorithm("Accu");
  ASSERT_TRUE(base.ok()) << base.status();
  TdacOptions options;
  options.base = base->get();
  RunBudget budget;
  budget.max_total_iterations = int64_t{1} << 40;
  RunGuard guard(budget);
  ASSERT_TRUE(Tdac(options).Discover(*data, guard).ok());
  const int64_t one_run = guard.iterations_consumed();
  ASSERT_GT(one_run, 1);

  // A budget of exactly one run's iterations must leave --out equal to the
  // unbudgeted run's: the table must not have spent it on a run of its own.
  const std::string run = "run --claims=" + claims + " --truth=" + truth +
                          " --algorithm=Accu --tdac";
  const std::string unbudgeted = scratch.path() + "/unbudgeted.csv";
  const std::string budgeted = scratch.path() + "/budgeted.csv";
  ASSERT_EQ(RunCli(run + " --out=" + unbudgeted), 0);
  ASSERT_EQ(RunCli(run + " --iteration-budget=" + std::to_string(one_run) +
                   " --out=" + budgeted),
            0);
  EXPECT_EQ(ReadAll(budgeted), ReadAll(unbudgeted));
}

// Numeric flags are parsed whole: garbage or a trailing suffix is a usage
// error naming the flag, not an uncaught exception (exit 134) or a silently
// truncated value.
TEST(CliTest, MalformedNumericFlagsAreUsageErrors) {
  testutil::ScratchDir scratch;
  const std::string claims = scratch.path() + "/claims.csv";
  const std::string truth = scratch.path() + "/truth.csv";
  const std::string err_path = scratch.path() + "/stderr.txt";
  const std::string outputs =
      " --out-claims=" + claims + " --out-truth=" + truth;
  ASSERT_EQ(RunCli("generate --dataset=stocks" + outputs), 0);

  const std::string run = "run --claims=" + claims + " --algorithm=Accu";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"generate --dataset=stocks --seed=abc" + outputs, "--seed"},
      {"generate --dataset=ds1 --objects=12o" + outputs, "--objects"},
      {"generate --dataset=exam32 --range=wide" + outputs, "--range"},
      {run + " --tdac --threads=abc", "--threads"},
      {run + " --tdac --threads=4x", "--threads"},
      {run + " --greedy --threads=", "--threads"},
      {run + " --tdac --max-k=3.5", "--max-k"},
      {run + " --tdac --refine=two", "--refine"},
      {run + " --deadline-ms=soon", "--deadline-ms"},
      {run + " --iteration-budget=99999999999999999999", "--iteration-budget"},
      {run + " --checkpoint-dir=" + scratch.path() +
           "/ckpt --checkpoint-interval-ms=5s",
       "--checkpoint-interval-ms"},
  };
  for (const auto& [args, flag] : cases) {
    std::string err;
    EXPECT_EQ(RunCliStderr(args, err_path, &err), 2) << args;
    EXPECT_NE(err.find(flag), std::string::npos) << args << ": " << err;
  }
  // Well-formed values still run.
  EXPECT_EQ(RunCli(run + " --tdac --threads=2 --max-k=3 --deadline-ms=60000"),
            0);
}

TEST(CliTest, DirectoryAsClaimFileIsAnIoError) {
  testutil::ScratchDir scratch;
  std::string err;
  EXPECT_EQ(RunCliStderr("run --claims=" + scratch.path(),
                         scratch.path() + "/stderr.txt", &err),
            1);
  EXPECT_NE(err.find("IoError"), std::string::npos) << err;
}

}  // namespace
}  // namespace tdac
