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

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.h"
#include "common/csv.h"
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

/// Forwards to `base` and cancels `token` as its call number `cancel_at`
/// (1-based) starts, so a run trips at the same point on every machine.
/// `cancel_at` 0 never cancels; calls() counts the runs either way.
class CancelAtCall : public TruthDiscovery {
 public:
  CancelAtCall(const TruthDiscovery* base, CancellationToken* token,
               int cancel_at)
      : base_(base), token_(token), cancel_at_(cancel_at) {}

  std::string_view name() const override { return base_->name(); }
  int calls() const { return calls_.load(); }

 protected:
  Result<TruthDiscoveryResult> DiscoverGuarded(
      const DatasetLike& data, const RunGuard& guard) const override {
    if (calls_.fetch_add(1) + 1 == cancel_at_) token_->Cancel();
    return base_->Discover(data, guard);
  }

 private:
  const TruthDiscovery* base_;
  CancellationToken* token_;
  int cancel_at_;
  mutable std::atomic<int> calls_{0};
};

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
    const std::string want =
        SerializeTruthDiscoveryResult(baseline.value(), data_->dataset);

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
          EXPECT_EQ(
              SerializeTruthDiscoveryResult(result.value(), data_->dataset),
              want);
        }
      }
      if (!clean) {
        // Final resume with no guard must complete and match exactly.
        auto result = algo->Discover(data_->dataset);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_FALSE(result->degraded());
        EXPECT_EQ(SerializeTruthDiscoveryResult(result.value(), data_->dataset),
                  want);
      }
      // Clean completion leaves no resume state (and no temp files) behind.
      EXPECT_EQ(FilesLeft(), 0u);
    }
  }

  /// Cancels a run of `make(ckpt, base)` as base call `cancel_at` starts
  /// and appends one line per current `*.ckpt` file it leaves behind to
  /// `out`: the case, the file name, its size and its FNV-1a. The `.prev`
  /// files are skipped: where a batch ended depends on the thread count.
  void AppendCheckpointFiles(
      const std::string& name, int cancel_at,
      const std::function<std::unique_ptr<TruthDiscovery>(
          Checkpointer*, const TruthDiscovery*)>& make,
      std::string* out) {
    SCOPED_TRACE(name);
    ClearDir();
    CancellationToken token;
    CancelAtCall base(&base_, &token, cancel_at);
    Checkpointer ckpt = MakeCheckpointer();
    RunGuard guard(&token);
    auto result = make(&ckpt, &base)->Discover(data_->dataset, guard);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->stop_reason, StopReason::kCancelled);

    auto files = ListDirFiles(scratch_.path());
    ASSERT_TRUE(files.ok()) << files.status();
    std::vector<std::string> names = files.value();
    std::sort(names.begin(), names.end());
    for (const std::string& file : names) {
      if (!file.ends_with(".ckpt")) continue;
      auto bytes = ReadFileToString(scratch_.path() + "/" + file);
      ASSERT_TRUE(bytes.ok()) << bytes.status();
      *out += name + " " + file + " " + std::to_string(bytes->size()) + " " +
              testutil::Fnv1a64Hex(*bytes) + "\n";
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
  EXPECT_EQ(SerializeTruthDiscoveryResult(resumed.value(), data_->dataset),
            SerializeTruthDiscoveryResult(uninterrupted.value(),
                                          data_->dataset));
}

// A CRC-valid reference slot whose payload claims 2^64-1 trust values must
// cost only the reference run: the resume warns, recomputes it, and still
// lands on the uninterrupted answer instead of aborting the process.
TEST_F(ResumeDeterminismTest, MalformedReferencePayloadIsRecomputed) {
  auto make = [&](Checkpointer* ckpt, const TruthDiscovery* base) {
    TdacOptions options;
    options.base = base;
    options.threads = 1;
    options.checkpointer = ckpt;
    return std::make_unique<Tdac>(options);
  };
  Checkpointer ckpt = MakeCheckpointer();
  {
    // Cancelled as the first group run starts: the reference slot is done.
    CancellationToken token;
    CancelAtCall base(&base_, &token, 2);
    RunGuard guard(&token);
    auto cut = make(&ckpt, &base)->Discover(data_->dataset, guard);
    ASSERT_TRUE(cut.ok()) << cut.status();
    ASSERT_TRUE(cut->degraded());
  }
  const std::string slot = scratch_.path() + "/tdac.r0.reference.ckpt";
  auto stored = LoadCheckpoint(slot);
  ASSERT_TRUE(stored.ok()) << stored.status();
  const std::string context_line = stored->substr(0, stored->find('\n') + 1);
  ASSERT_TRUE(context_line.starts_with("CTX ")) << context_line;
  ASSERT_TRUE(
      SaveCheckpoint(slot, context_line + "R 1 1 0\nT 18446744073709551615\n")
          .ok());

  ::testing::internal::CaptureStderr();
  auto resumed = make(&ckpt, &base_)->Discover(data_->dataset);
  const std::string log = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_NE(log.find("reference checkpoint payload unusable"),
            std::string::npos)
      << log;

  auto uninterrupted = make(nullptr, &base_)->Discover(data_->dataset);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();
  EXPECT_EQ(SerializeTruthDiscoveryResult(resumed.value(), data_->dataset),
            SerializeTruthDiscoveryResult(uninterrupted.value(),
                                          data_->dataset));
}

// Pins the bytes of every checkpoint file a deterministic cancellation
// leaves behind, so a change to how payloads are written cannot go
// unnoticed: snapshots written by an earlier build must still resume.
TEST_F(ResumeDeterminismTest, CheckpointFilesMatchGolden) {
  auto tdac = [](int rounds) {
    return [rounds](Checkpointer* ckpt, const TruthDiscovery* base) {
      TdacOptions options;
      options.base = base;
      options.threads = 1;
      options.refinement_rounds = rounds;
      options.checkpointer = ckpt;
      return std::unique_ptr<TruthDiscovery>(std::make_unique<Tdac>(options));
    };
  };
  // Round 0 is the reference run plus one run per non-empty group; round
  // 1's first group run is the call after it. Cancelling there leaves
  // round 0's reference, sweep and groups slots complete.
  CancellationToken never;
  CancelAtCall counter(&base_, &never, 0);
  ASSERT_TRUE(tdac(0)(nullptr, &counter)->Discover(data_->dataset).ok());
  const int round1_first_group = counter.calls() + 1;

  std::string actual;
  AppendCheckpointFiles("tdac", round1_first_group, tdac(1), &actual);
  AppendCheckpointFiles(
      "tdoc", 2,
      [](Checkpointer* ckpt, const TruthDiscovery* base) {
        TdocOptions options;
        options.base = base;
        options.checkpointer = ckpt;
        return std::unique_ptr<TruthDiscovery>(
            std::make_unique<Tdoc>(options));
      },
      &actual);
  AppendCheckpointFiles(
      "gen", 15,
      [](Checkpointer* ckpt, const TruthDiscovery* base) {
        GenPartitionOptions options;
        options.base = base;
        options.threads = 1;
        options.checkpointer = ckpt;
        return std::unique_ptr<TruthDiscovery>(
            std::make_unique<GenPartitionAlgorithm>(options));
      },
      &actual);
  AppendCheckpointFiles(
      "greedy", 24,
      [](Checkpointer* ckpt, const TruthDiscovery* base) {
        GenPartitionOptions options;
        options.base = base;
        options.threads = 1;
        options.checkpointer = ckpt;
        return std::unique_ptr<TruthDiscovery>(
            std::make_unique<GreedyPartitionAlgorithm>(options));
      },
      &actual);
  testutil::ExpectMatchesGolden(
      std::string(TDAC_GOLDEN_DIR) + "/checkpoint_files.txt", actual);
}

}  // namespace
}  // namespace tdac
