// Golden-file regression gate for the paper-table benchmarks.
//
// Runs the real bench_table4_synthetic / bench_table5_partitions binaries
// (paths baked in via TDAC_BENCH_TABLE4_BIN / TDAC_BENCH_TABLE5_BIN) at a
// pinned size and seed and byte-compares stdout against the checked-in
// goldens in tests/golden/. Table 4 passes --zero-time so the only
// non-deterministic column renders as 0.000; every other byte — precision,
// recall, iteration counts, partitions — must match exactly. This is what
// makes kernel rewrites safe: a layout or vectorization change that shifts
// any reported number by even one ulp fails here.
//
// To regenerate after an *intentional* behavior change, run with
// TDAC_UPDATE_GOLDEN=1 in the environment and commit the diff.
//
// Also covers the benches' row-set checkpoint codec (SerializeRows /
// ParseRows in bench/bench_common.h), which replays a finished table on
// --resume.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"

namespace tdac {
namespace {

std::string RunAndCapture(const std::string& command) {
  std::string out;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return out;
  }
  std::array<char, 4096> buf;
  size_t n;
  while ((n = ::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out.append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  EXPECT_EQ(status, 0) << "bench exited non-zero for: " << command;
  return out;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool UpdateRequested() {
  const char* env = std::getenv("TDAC_UPDATE_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

void CheckAgainstGolden(const std::string& command,
                        const std::string& golden_name) {
  const std::string golden_path =
      std::string(TDAC_GOLDEN_DIR) + "/" + golden_name;
  const std::string actual = RunAndCapture(command);
  ASSERT_FALSE(actual.empty()) << "bench produced no output: " << command;
  if (UpdateRequested()) {
    std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden regenerated: " << golden_path;
  }
  const std::string expected = ReadFileOrEmpty(golden_path);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << golden_path;
  // Byte equality, reported as a unified first-difference so a failure
  // points at the exact line rather than dumping two full tables.
  if (actual != expected) {
    size_t i = 0;
    while (i < actual.size() && i < expected.size() &&
           actual[i] == expected[i]) {
      ++i;
    }
    const size_t line =
        1 + static_cast<size_t>(
                std::count(expected.begin(),
                           expected.begin() +
                               static_cast<std::ptrdiff_t>(
                                   std::min(i, expected.size())),
                           '\n'));
    FAIL() << "bench output diverges from " << golden_name
           << " at byte " << i << " (golden line " << line << ")\n"
           << "command: " << command << "\n"
           << "rerun with TDAC_UPDATE_GOLDEN=1 only if the change is "
              "intentional";
  }
}

TEST(BenchGoldenTest, Table4SyntheticMatchesGolden) {
  CheckAgainstGolden(std::string(TDAC_BENCH_TABLE4_BIN) +
                         " --objects=80 --seed=42 --zero-time 2>/dev/null",
                     "bench_table4_objects80_seed42.txt");
}

TEST(BenchGoldenTest, Table5PartitionsMatchesGolden) {
  CheckAgainstGolden(std::string(TDAC_BENCH_TABLE5_BIN) +
                         " --objects=60 --seed=42 2>/dev/null",
                     "bench_table5_objects60_seed42.txt");
}

// --- Row-set checkpoint codec -----------------------------------------------

/// One row per stop reason, with an algorithm name that needs escaping and
/// non-finite and negative-zero metrics.
std::vector<ExperimentRow> AwkwardRows() {
  std::vector<ExperimentRow> rows;
  for (int stop = static_cast<int>(StopReason::kConverged);
       stop <= static_cast<int>(StopReason::kOverloaded); ++stop) {
    ExperimentRow r;
    r.algorithm = "TD-AC(F=Accu) run " + std::to_string(stop) + " 100%";
    r.metrics.precision = std::numeric_limits<double>::quiet_NaN();
    r.metrics.recall = -0.0;
    r.metrics.accuracy = std::numeric_limits<double>::infinity();
    r.metrics.f1 = -std::numeric_limits<double>::infinity();
    r.metrics.item_accuracy = 1.0 / 3.0;
    r.metrics.counts = {static_cast<size_t>(stop), 2, 3, 4, 5};
    r.metrics.items_evaluated = 6;
    r.seconds = 0.125 * stop;
    r.iterations = stop - 1;  // -1 renders as "not applicable"
    r.stop_reason = static_cast<StopReason>(stop);
    rows.push_back(r);
  }
  return rows;
}

TEST(BenchRowCodecTest, RoundTripsEveryFieldAndStopReason) {
  const std::vector<ExperimentRow> rows = AwkwardRows();
  const std::string payload = tdac_bench::SerializeRows(rows);
  std::vector<ExperimentRow> parsed;
  ASSERT_TRUE(tdac_bench::ParseRows(payload, &parsed)) << payload;
  ASSERT_EQ(parsed.size(), rows.size());
  // Re-serializing compares every double bit for bit, NaN included.
  EXPECT_EQ(tdac_bench::SerializeRows(parsed), payload);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(parsed[i].algorithm, rows[i].algorithm);
    EXPECT_TRUE(std::isnan(parsed[i].metrics.precision));
    EXPECT_TRUE(std::signbit(parsed[i].metrics.recall));
    EXPECT_EQ(parsed[i].metrics.counts.tp, rows[i].metrics.counts.tp);
    EXPECT_EQ(parsed[i].iterations, rows[i].iterations);
    EXPECT_EQ(parsed[i].stop_reason, rows[i].stop_reason);
  }
}

// The bytes a parent build wrote must still replay: pin one payload.
TEST(BenchRowCodecTest, PayloadFormatIsPinned) {
  ExperimentRow r;
  r.algorithm = "Majority Vote";
  r.metrics.precision = 0.5;
  r.metrics.recall = 0.25;
  r.metrics.accuracy = 1.0;
  r.metrics.f1 = -0.0;
  r.metrics.item_accuracy = 0.75;
  r.metrics.counts = {1, 2, 3, 4, 5};
  r.metrics.items_evaluated = 6;
  r.seconds = 2.0;
  r.iterations = 7;
  r.stop_reason = StopReason::kDeadline;
  const std::string payload =
      "1\nMajority%20Vote 3fe0000000000000 3fd0000000000000 "
      "3ff0000000000000 8000000000000000 3fe8000000000000 1 2 3 4 5 6 "
      "4000000000000000 7 2\n";
  EXPECT_EQ(tdac_bench::SerializeRows({r}), payload);
  std::vector<ExperimentRow> parsed;
  ASSERT_TRUE(tdac_bench::ParseRows(payload, &parsed));
  EXPECT_EQ(tdac_bench::SerializeRows(parsed), payload);
}

TEST(BenchRowCodecTest, RejectsUnknownStopReasonAndMalformedRows) {
  const std::string row =
      "Majority%20Vote 3fe0000000000000 3fd0000000000000 "
      "3ff0000000000000 8000000000000000 3fe8000000000000 1 2 3 4 5 6 "
      "4000000000000000 7 ";
  const std::vector<ExperimentRow> kept = AwkwardRows();
  for (const std::string& payload :
       {"1\n" + row + "99\n", "1\n" + row + "-1\n",
        "2\n" + row + "2\n", "1\n" + row + "2\nextra\n",
        "18446744073709551615\n" + row + "2\n"}) {
    std::vector<ExperimentRow> rows = kept;
    EXPECT_FALSE(tdac_bench::ParseRows(payload, &rows)) << payload;
    EXPECT_EQ(tdac_bench::SerializeRows(rows),
              tdac_bench::SerializeRows(kept));  // left alone
  }
}

}  // namespace
}  // namespace tdac
