// Unit coverage for the run-guard layer itself: StopReason algebra, token
// semantics, deadline/iteration budgets, ParallelFor's skip-on-trip
// contract, and the AllFinite/CheckFinite numeric rails. End-to-end guard
// behaviour through the algorithms lives in robustness_test.cc.

#include "common/run_guard.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"

namespace tdac {
namespace {

TEST(StopReasonTest, NamesAreStable) {
  EXPECT_EQ(StopReasonToString(StopReason::kConverged), "Converged");
  EXPECT_EQ(StopReasonToString(StopReason::kMaxIterations), "MaxIterations");
  EXPECT_EQ(StopReasonToString(StopReason::kDeadline), "Deadline");
  EXPECT_EQ(StopReasonToString(StopReason::kCancelled), "Cancelled");
  EXPECT_EQ(StopReasonToString(StopReason::kNonFinite), "NonFinite");
}

TEST(StopReasonTest, OnlyBudgetAndRailOutcomesAreDegraded) {
  EXPECT_FALSE(IsDegraded(StopReason::kConverged));
  EXPECT_FALSE(IsDegraded(StopReason::kMaxIterations));
  EXPECT_TRUE(IsDegraded(StopReason::kDeadline));
  EXPECT_TRUE(IsDegraded(StopReason::kCancelled));
  EXPECT_TRUE(IsDegraded(StopReason::kNonFinite));
}

TEST(StopReasonTest, CombineKeepsTheMoreSevere) {
  EXPECT_EQ(CombineStopReasons(StopReason::kConverged, StopReason::kDeadline),
            StopReason::kDeadline);
  EXPECT_EQ(CombineStopReasons(StopReason::kNonFinite, StopReason::kCancelled),
            StopReason::kNonFinite);
  EXPECT_EQ(
      CombineStopReasons(StopReason::kMaxIterations, StopReason::kConverged),
      StopReason::kMaxIterations);
}

TEST(RunGuardTest, DefaultGuardNeverTrips) {
  RunGuard guard;
  EXPECT_FALSE(guard.active());
  EXPECT_FALSE(guard.ShouldStop().has_value());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(guard.OnIteration().has_value());
  }
  EXPECT_FALSE(RunGuard::None().active());
  EXPECT_FALSE(RunGuard::None().ShouldStop().has_value());
}

TEST(RunGuardTest, UnlimitedBudgetStaysInactive) {
  RunBudget budget;
  EXPECT_TRUE(budget.unlimited());
  RunGuard guard(budget);
  EXPECT_FALSE(guard.active());
  EXPECT_FALSE(guard.OnIteration().has_value());
}

TEST(RunGuardTest, CancellationIsStickyAndResettable) {
  CancellationToken token;
  RunGuard guard(&token);
  EXPECT_TRUE(guard.active());
  EXPECT_FALSE(guard.ShouldStop().has_value());
  token.Cancel();
  ASSERT_TRUE(guard.ShouldStop().has_value());
  EXPECT_EQ(*guard.ShouldStop(), StopReason::kCancelled);
  EXPECT_EQ(*guard.OnIteration(), StopReason::kCancelled);
  token.Reset();
  EXPECT_FALSE(guard.ShouldStop().has_value());
}

TEST(RunGuardTest, DeadlineTripsAfterExpiry) {
  RunBudget budget;
  budget.deadline_ms = 20.0;
  RunGuard guard(budget);
  EXPECT_TRUE(guard.active());
  EXPECT_FALSE(guard.ShouldStop().has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(guard.ShouldStop().has_value());
  EXPECT_EQ(*guard.ShouldStop(), StopReason::kDeadline);
}

TEST(RunGuardTest, IterationBudgetIsConsumedExactlyOnce) {
  RunBudget budget;
  budget.max_total_iterations = 5;
  RunGuard guard(budget);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(guard.OnIteration().has_value()) << "iteration " << i;
  }
  ASSERT_TRUE(guard.OnIteration().has_value());
  EXPECT_EQ(*guard.OnIteration(), StopReason::kMaxIterations);
  EXPECT_GE(guard.iterations_consumed(), 5);
}

TEST(RunGuardTest, IterationBudgetIsSharedAcrossThreads) {
  RunBudget budget;
  budget.max_total_iterations = 1000;
  RunGuard guard(budget);
  std::atomic<int> allowed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 1000; ++i) {
        if (!guard.OnIteration().has_value()) allowed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // The pool is global: exactly budget-many iterations were allowed in
  // total, not per thread.
  EXPECT_EQ(allowed.load(), 1000);
}

TEST(RunGuardTest, CancellationOnlyGuardWithNullTokenIsInactive) {
  RunGuard guard(static_cast<const CancellationToken*>(nullptr));
  EXPECT_FALSE(guard.active());
  EXPECT_FALSE(guard.ShouldStop().has_value());
}

TEST(RunGuardParallelForTest, TrippedGuardSkipsRemainingBodies) {
  CancellationToken token;
  token.Cancel();
  RunGuard guard(&token);
  std::vector<int> touched(64, 0);
  ParallelForOptions options;
  options.guard = &guard;
  options.max_parallelism = 4;
  ParallelFor(touched.size(), [&](size_t i) { touched[i] = 1; }, options);
  // Every body was skipped: the loop still "completes" (no hang, all slots
  // accounted for) but no slot was written.
  for (int t : touched) EXPECT_EQ(t, 0);
}

TEST(RunGuardParallelForTest, InactiveGuardRunsEveryBody) {
  RunGuard guard;
  std::vector<int> touched(64, 0);
  ParallelForOptions options;
  options.guard = &guard;
  options.max_parallelism = 4;
  ParallelFor(touched.size(), [&](size_t i) { touched[i] = 1; }, options);
  for (int t : touched) EXPECT_EQ(t, 1);
}

TEST(NumericRailsTest, AllFiniteFlagsEveryNonFiniteKind) {
  EXPECT_TRUE(AllFinite(std::vector<double>{}));
  EXPECT_TRUE(AllFinite(std::vector<double>{0.0, -1.5, 1e300}));
  EXPECT_FALSE(AllFinite(std::vector<double>{
      1.0, std::numeric_limits<double>::quiet_NaN()}));
  EXPECT_FALSE(AllFinite(std::vector<double>{
      std::numeric_limits<double>::infinity()}));
  EXPECT_FALSE(AllFinite(std::vector<double>{
      -std::numeric_limits<double>::infinity(), 2.0}));
}

TEST(NumericRailsTest, CheckFiniteNamesLabelAndIndex) {
  EXPECT_TRUE(CheckFinite({1.0, 2.0}, "trust").ok());
  Status bad = CheckFinite(
      {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0}, "trust");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("trust"), std::string::npos);
  EXPECT_NE(bad.message().find("index 1"), std::string::npos);
}

}  // namespace
}  // namespace tdac
