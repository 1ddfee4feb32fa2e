// tdac_cli end to end: `run --truth` runs the algorithm once, so the
// metrics table and every output file come from the same result and the
// run's deadline and iteration budget are spent on it alone.
//
// The CLI binary path is baked in at configure time as TDAC_CLI_BIN; the
// daemon, supervisor and bench paths used by the numeric-flag tests as
// TDAC_SERVE_BIN, TDAC_SUPERVISE_BIN and TDAC_BENCH_TABLE8_BIN.

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

/// Runs `binary` with `args` and stdin from /dev/null; its exit code, with
/// stderr (via `err_path`) left in `*err`.
int RunToolStderr(const std::string& binary, const std::string& args,
                  const std::string& err_path, std::string* err) {
  const std::string command =
      binary + " " + args + " < /dev/null > /dev/null 2> " + err_path;
  const int status = std::system(command.c_str());
  *err = ReadAll(err_path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs the CLI with `args`; its exit code, with stderr (via `err_path`)
/// left in `*err`.
int RunCliStderr(const std::string& args, const std::string& err_path,
                 std::string* err) {
  return RunToolStderr(TDAC_CLI_BIN, args, err_path, err);
}

/// Expects every `{args, flag}` case to be a usage error (exit 2) of
/// `binary` whose message, caught in `err_path`, names `flag`.
void ExpectUsageErrors(
    const std::string& binary, const std::string& err_path,
    const std::vector<std::pair<std::string, std::string>>& cases) {
  for (const auto& [args, flag] : cases) {
    std::string err;
    EXPECT_EQ(RunToolStderr(binary, args, err_path, &err), 2) << args;
    EXPECT_NE(err.find(flag), std::string::npos) << args << ": " << err;
  }
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

// The daemon, the supervisor and the benches parse numeric flags the same
// way: a negative size is rejected rather than wrapped to 2^64-1, a
// trailing suffix is an error rather than dropped, and garbage is a usage
// error rather than an uncaught exception.
TEST(CliTest, ServeMalformedNumericFlagsAreUsageErrors) {
  testutil::ScratchDir scratch;
  ExpectUsageErrors(TDAC_SERVE_BIN, scratch.path() + "/stderr.txt",
                    {{"--workers=4x", "--workers"},
                     {"--queue-capacity=", "--queue-capacity"},
                     {"--result-cache-bytes=-1", "--result-cache-bytes"},
                     {"--dataset-cache-bytes=1e9", "--dataset-cache-bytes"},
                     {"--restriction-cache=many", "--restriction-cache"},
                     {"--default-deadline-ms=soon", "--default-deadline-ms"},
                     {"--execution-delay-ms=5ms", "--execution-delay-ms"},
                     {"--max-line-bytes=1k", "--max-line-bytes"}});
  std::string err;
  EXPECT_EQ(RunToolStderr(TDAC_SERVE_BIN,
                          "--workers=2 --result-cache-bytes=1024 "
                          "--default-deadline-ms=2.5",
                          scratch.path() + "/stderr.txt", &err),
            0)
      << err;
}

TEST(CliTest, SuperviseMalformedNumericFlagsAreUsageErrors) {
  testutil::ScratchDir scratch;
  ExpectUsageErrors(
      TDAC_SUPERVISE_BIN, scratch.path() + "/stderr.txt",
      {{"--crash-loop-limit=2x -- /bin/true", "--crash-loop-limit"},
       {"--seed=-5 -- /bin/true", "--seed"},
       {"--backoff-initial-ms=fast -- /bin/true", "--backoff-initial-ms"},
       {"--backoff-max-ms= -- /bin/true", "--backoff-max-ms"},
       {"--backoff-factor=2.0x -- /bin/true", "--backoff-factor"},
       {"--jitter-frac=lots -- /bin/true", "--jitter-frac"},
       {"--stable-ms=1s -- /bin/true", "--stable-ms"}});
  std::string err;
  EXPECT_EQ(RunToolStderr(TDAC_SUPERVISE_BIN,
                          "--seed=5 --crash-loop-limit=2 --jitter-frac=0.1 "
                          "-- /bin/true",
                          scratch.path() + "/stderr.txt", &err),
            0)
      << err;
}

TEST(CliTest, BenchMalformedNumericFlagsAreUsageErrors) {
  testutil::ScratchDir scratch;
  ExpectUsageErrors(TDAC_BENCH_TABLE8_BIN, scratch.path() + "/stderr.txt",
                    {{"--threads=abc", "--threads"},
                     {"--objects=50x", "--objects"},
                     {"--seed=-1", "--seed"},
                     {"--checkpoint-interval-ms=5s",
                      "--checkpoint-interval-ms"}});
  std::string err;
  EXPECT_EQ(RunToolStderr(TDAC_BENCH_TABLE8_BIN,
                          "--objects=50 --threads=1 --seed=7",
                          scratch.path() + "/stderr.txt", &err),
            0)
      << err;
}

// Each command, and each run mode, reads a fixed set of flags. A typo, or
// a flag meant for another mode, is a usage error that names it rather
// than a run that silently ignores it.
TEST(CliTest, FlagsAModeDoesNotReadAreUsageErrors) {
  testutil::ScratchDir scratch;
  const std::string claims = scratch.path() + "/claims.csv";
  const std::string outputs = " --out-claims=" + claims +
                              " --out-truth=" + scratch.path() + "/truth.csv";
  ASSERT_EQ(RunCli("generate --dataset=stocks" + outputs), 0);
  const std::string stats = "stats --claims=" + claims;
  const std::string run = "run --claims=" + claims + " --algorithm=Accu";
  ExpectUsageErrors(
      TDAC_CLI_BIN, scratch.path() + "/stderr.txt",
      {{run + " --bogus", "--bogus"},
       {run + " --tdac --thread=1", "--thread"},
       {stats + " --nonsense", "--nonsense"},
       {run + " --tdoc --sparse", "--sparse"},
       {run + " --tdoc --agglomerative", "--agglomerative"},
       {run + " --tdoc --refine=2", "--refine"},
       {run + " --tdac --tdoc", "--tdoc"},
       {run + " --greedy --max-k=3", "--max-k"},
       {run + " --checkpoint-interval-ms=5", "--checkpoint-interval-ms"},
       {"algorithms --verbose", "--verbose"},
       {"generate --dataset=stocks --objects=5" + outputs, "--objects"},
       {"generate --dataset=ds1 --range=50" + outputs, "--range"}});
  // The flags a mode reads still run.
  EXPECT_EQ(RunCli(stats + " --threads=2"), 0);
  EXPECT_EQ(RunCli(run + " --tdoc --max-k=3 --serial"), 0);
}

// --threads and --serial set one thread count, read by the claim load in
// every command that loads claims, and by TD-OC's pass as well as TD-AC's.
TEST(CliTest, ThreadFlagsReachTheLoadAndTdoc) {
  testutil::ScratchDir scratch;
  const std::string claims = scratch.path() + "/claims.csv";
  ASSERT_EQ(RunCli("generate --dataset=stocks --out-claims=" + claims +
                   " --out-truth=" + scratch.path() + "/truth.csv"),
            0);
  const std::string run = "run --claims=" + claims + " --algorithm=Accu";
  ExpectUsageErrors(TDAC_CLI_BIN, scratch.path() + "/stderr.txt",
                    {{"stats --claims=" + claims + " --threads=abc",
                      "--threads"},
                     {run + " --threads=4x", "--threads"},
                     {run + " --tdoc --threads=two", "--threads"}});
  const std::string serial = scratch.path() + "/serial.csv";
  const std::string threaded = scratch.path() + "/threaded.csv";
  ASSERT_EQ(RunCli(run + " --tdoc --max-k=3 --serial --out=" + serial), 0);
  ASSERT_EQ(RunCli(run + " --tdoc --max-k=3 --threads=4 --out=" + threaded),
            0);
  EXPECT_EQ(ReadAll(threaded), ReadAll(serial));
}

// A base-only run reads --threads too: at --threads=4 its store, above the
// item-block grain, runs its phases over blocks on the pool, and every
// output byte matches --serial.
TEST(CliTest, BaseRunWritesTheSameBytesAtEveryWidth) {
  testutil::ScratchDir scratch;
  const std::string claims = scratch.path() + "/claims.csv";
  ASSERT_EQ(RunCli("generate --dataset=ds2 --objects=2000 --out-claims=" +
                   claims + " --out-truth=" + scratch.path() + "/truth.csv"),
            0);
  const std::string run = "run --claims=" + claims + " --algorithm=Accu";
  const std::string out = " --out=" + scratch.path() + "/";
  const std::string trust = " --trust-out=" + scratch.path() + "/";
  ASSERT_EQ(RunCli(run + " --serial" + out + "serial.csv" + trust +
                   "serial_trust.csv"),
            0);
  ASSERT_EQ(RunCli(run + " --threads=4" + out + "threaded.csv" + trust +
                   "threaded_trust.csv"),
            0);
  const std::string serial = ReadAll(scratch.path() + "/serial.csv");
  EXPECT_FALSE(serial.empty());
  EXPECT_TRUE(ReadAll(scratch.path() + "/threaded.csv") == serial);
  EXPECT_EQ(ReadAll(scratch.path() + "/threaded_trust.csv"),
            ReadAll(scratch.path() + "/serial_trust.csv"));
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
