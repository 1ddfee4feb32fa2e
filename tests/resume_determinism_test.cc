// Resume determinism: a run that is cut short (deadline trip) with
// checkpointing enabled and then resumed to completion must produce a
// result bit-identical to an uninterrupted run — for TD-AC, TD-OC, and
// both partition searches, at every trip point the deadline sweep lands
// on. Registered in ctest twice: serial and under TDAC_THREADS=8 (the
// sweep/group fan-out must not change where checkpoints land or what a
// resume reproduces).
//
// The in-process analogue of scripts/crash_loop.sh: a deadline trip
// exercises the same save-clean-state/StoreNow-on-trip/resume machinery a
// SIGKILL does, minus the process death (crash_recovery_test covers that).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.h"
#include "common/io.h"
#include "common/run_guard.h"
#include "gen/synthetic.h"
#include "partition/gen_partition.h"
#include "partition/greedy_partition.h"
#include "td/accu.h"
#include "tdac/tdac.h"
#include "tdac/tdoc.h"
#include "test_util.h"

namespace tdac {
namespace {

class ResumeDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto config = PaperSyntheticConfig(2, /*seed=*/42);
    ASSERT_TRUE(config.ok()) << config.status();
    config->num_objects = 600;
    auto data = GenerateSynthetic(*config);
    ASSERT_TRUE(data.ok()) << data.status();
    data_ = std::make_unique<GeneratedData>(std::move(data).value());
  }

  void ClearDir() {
    auto files = ListDirFiles(scratch_.path());
    ASSERT_TRUE(files.ok()) << files.status();
    for (const std::string& f : files.value()) {
      ASSERT_TRUE(RemoveFile(scratch_.path() + "/" + f).ok());
    }
  }

  Checkpointer MakeCheckpointer() const {
    CheckpointOptions options;
    options.dir = scratch_.path();
    options.interval_ms = 0.0;  // snapshot at every boundary
    options.resume = true;
    return Checkpointer(options);
  }

  size_t FilesLeft() const {
    auto files = ListDirFiles(scratch_.path());
    EXPECT_TRUE(files.ok()) << files.status();
    return files.ok() ? files.value().size() : 0;
  }

  /// Runs `make(ckpt)->Discover` uninterrupted once, then for each deadline:
  /// trip (possibly several times), resume unguarded, and require the final
  /// serialized result to equal the uninterrupted one byte for byte.
  void CheckAlgorithm(
      const std::function<std::unique_ptr<TruthDiscovery>(Checkpointer*)>&
          make) {
    auto baseline_algo = make(nullptr);
    auto baseline = baseline_algo->Discover(data_->dataset);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    const std::string want = SerializeTruthDiscoveryResult(baseline.value());

    for (double deadline_ms : {3.0, 10.0, 30.0, 80.0}) {
      SCOPED_TRACE("deadline_ms=" + std::to_string(deadline_ms));
      ClearDir();
      Checkpointer ckpt = MakeCheckpointer();
      auto algo = make(&ckpt);

      // Up to three short-deadline runs in a row: each resumes whatever the
      // previous one persisted, so the chain exercises repeated kills at
      // different depths of the run.
      bool clean = false;
      for (int attempt = 0; attempt < 3 && !clean; ++attempt) {
        RunBudget budget;
        budget.deadline_ms = deadline_ms;
        RunGuard guard(budget);
        auto result = algo->Discover(data_->dataset, guard);
        ASSERT_TRUE(result.ok()) << result.status();
        clean = !result->degraded();
        if (clean) {
          EXPECT_EQ(SerializeTruthDiscoveryResult(result.value()), want);
        }
      }
      if (!clean) {
        // Final resume with no guard must complete and match exactly.
        auto result = algo->Discover(data_->dataset);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_FALSE(result->degraded());
        EXPECT_EQ(SerializeTruthDiscoveryResult(result.value()), want);
      }
      // Clean completion leaves no resume state (and no temp files) behind.
      EXPECT_EQ(FilesLeft(), 0u);
    }
  }

  testutil::ScratchDir scratch_;
  Accu base_;
  std::unique_ptr<GeneratedData> data_;
};

TEST_F(ResumeDeterminismTest, TdacSweepResumesBitIdentical) {
  CheckAlgorithm([&](Checkpointer* ckpt) {
    TdacOptions options;
    options.base = &base_;
    options.checkpointer = ckpt;
    return std::make_unique<Tdac>(options);
  });
}

TEST_F(ResumeDeterminismTest, TdacRefinementRoundsResumeBitIdentical) {
  CheckAlgorithm([&](Checkpointer* ckpt) {
    TdacOptions options;
    options.base = &base_;
    options.refinement_rounds = 2;
    options.checkpointer = ckpt;
    return std::make_unique<Tdac>(options);
  });
}

TEST_F(ResumeDeterminismTest, TdocSweepResumesBitIdentical) {
  CheckAlgorithm([&](Checkpointer* ckpt) {
    TdocOptions options;
    options.base = &base_;
    options.checkpointer = ckpt;
    return std::make_unique<Tdoc>(options);
  });
}

TEST_F(ResumeDeterminismTest, ExhaustiveSearchResumesBitIdentical) {
  CheckAlgorithm([&](Checkpointer* ckpt) {
    GenPartitionOptions options;
    options.base = &base_;
    options.checkpointer = ckpt;
    return std::make_unique<GenPartitionAlgorithm>(options);
  });
}

TEST_F(ResumeDeterminismTest, GreedySearchResumesBitIdentical) {
  CheckAlgorithm([&](Checkpointer* ckpt) {
    GenPartitionOptions options;
    options.base = &base_;
    options.checkpointer = ckpt;
    return std::make_unique<GreedyPartitionAlgorithm>(options);
  });
}

// A checkpoint from run A must not leak into run B: a snapshot taken with
// different sweep bounds is ignored (context mismatch) and the run simply
// recomputes, still landing on run B's uninterrupted answer.
TEST_F(ResumeDeterminismTest, ContextMismatchRecomputesInsteadOfResuming) {
  Checkpointer ckpt = MakeCheckpointer();

  TdacOptions wide;
  wide.base = &base_;
  wide.checkpointer = &ckpt;
  {
    // Leave a mid-run snapshot of the *wide* sweep behind.
    RunBudget budget;
    budget.deadline_ms = 20.0;
    RunGuard guard(budget);
    Tdac algo(wide);
    auto result = algo.Discover(data_->dataset, guard);
    ASSERT_TRUE(result.ok()) << result.status();
  }

  TdacOptions narrow = wide;
  narrow.max_k = 3;  // different sweep bounds -> different context
  Tdac narrow_algo(narrow);
  auto resumed = narrow_algo.Discover(data_->dataset);
  ASSERT_TRUE(resumed.ok()) << resumed.status();

  TdacOptions fresh = narrow;
  fresh.checkpointer = nullptr;
  Tdac fresh_algo(fresh);
  auto uninterrupted = fresh_algo.Discover(data_->dataset);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();
  EXPECT_EQ(SerializeTruthDiscoveryResult(resumed.value()),
            SerializeTruthDiscoveryResult(uninterrupted.value()));
}

}  // namespace
}  // namespace tdac
