// tdac_cli end to end: `run --truth` runs the algorithm once, so the
// metrics table and every output file come from the same result and the
// run's deadline and iteration budget are spent on it alone.
//
// The CLI binary path is baked in at configure time as TDAC_CLI_BIN.

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <string>

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

}  // namespace
}  // namespace tdac
