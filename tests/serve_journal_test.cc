// RequestJournal unit tests (src/serve/journal.{h,cc}): the write-ahead
// lifecycle (admit → done → emit), replay classification across a
// simulated crash at every stage, torn-tail and corrupt-record tolerance,
// append-failure degradation under injected disk faults, sequence-number
// continuation across generations, and compaction bounding the file. The
// live-daemon side of the same contract is exercised end to end by
// serve_chaos_test.cc.

#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "common/csv.h"
#include "common/io.h"
#include "gtest/gtest.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "test_util.h"

namespace tdac {
namespace {

ServeRequest MakeRequest(const std::string& id) {
  ServeRequest request;
  request.id = id;
  request.claims_path = "/tmp/claims.csv";
  request.algorithm = "Accu";
  return request;
}

ServeResponse MakeResponse(const std::string& id) {
  ServeResponse response;
  response.id = id;
  response.outcome = ServeResponse::Outcome::kOk;
  response.items = 7;
  response.iterations = 3;
  return response;
}

class RequestJournalTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = scratch_.path() + "/journal.log"; }

  std::unique_ptr<RequestJournal> OpenOrDie(JournalReplay* replay) {
    auto journal = RequestJournal::Open(path_, replay);
    EXPECT_TRUE(journal.ok()) << journal.status();
    return journal.MoveValue();
  }

  testutil::ScratchDir scratch_;
  std::string path_;
};

TEST_F(RequestJournalTest, FreshJournalStartsEmpty) {
  JournalReplay replay;
  auto journal = OpenOrDie(&replay);
  EXPECT_TRUE(replay.pending.empty());
  EXPECT_TRUE(replay.unacked.empty());
  EXPECT_EQ(replay.dropped, 0u);
  EXPECT_EQ(journal->stats().live, 0u);
  EXPECT_EQ(journal->stats().next_seq, 1u);
}

TEST_F(RequestJournalTest, FullLifecycleLeavesNothingToReplay) {
  {
    JournalReplay replay;
    auto journal = OpenOrDie(&replay);
    auto seq = journal->Admit(MakeRequest("r1"));
    ASSERT_TRUE(seq.ok()) << seq.status();
    EXPECT_EQ(*seq, 1u);
    ASSERT_TRUE(journal->Complete(*seq, MakeResponse("r1")).ok());
    journal->Emitted(*seq);
    EXPECT_EQ(journal->stats().live, 0u);
  }
  JournalReplay replay;
  auto journal = OpenOrDie(&replay);
  EXPECT_TRUE(replay.pending.empty());
  EXPECT_TRUE(replay.unacked.empty());
}

TEST_F(RequestJournalTest, CrashAfterAdmitReplaysAsPending) {
  {
    JournalReplay replay;
    auto journal = OpenOrDie(&replay);
    ASSERT_TRUE(journal->Admit(MakeRequest("lost")).ok());
    // Destructor without Complete/Emitted ~ a crash mid-execution.
  }
  JournalReplay replay;
  auto journal = OpenOrDie(&replay);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].seq, 1u);
  EXPECT_EQ(replay.pending[0].request.id, "lost");
  EXPECT_EQ(replay.pending[0].request.algorithm, "Accu");
  EXPECT_TRUE(replay.unacked.empty());
}

TEST_F(RequestJournalTest, CrashAfterCompleteReplaysAsUnackedVerbatim) {
  ServeResponse recorded = MakeResponse("done-but-unsent");
  recorded.latency_ms = 12.5;
  {
    JournalReplay replay;
    auto journal = OpenOrDie(&replay);
    auto seq = journal->Admit(MakeRequest("done-but-unsent"));
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(journal->Complete(*seq, recorded).ok());
    // No Emitted(): crash in the window between the durable done record
    // and the stdout write.
  }
  JournalReplay replay;
  auto journal = OpenOrDie(&replay);
  EXPECT_TRUE(replay.pending.empty());
  ASSERT_EQ(replay.unacked.size(), 1u);
  const ServeResponse& replayed = replay.unacked[0].response;
  EXPECT_EQ(replayed.id, "done-but-unsent");
  EXPECT_EQ(replayed.outcome, ServeResponse::Outcome::kOk);
  EXPECT_EQ(replayed.items, 7u);  // the recorded response, not a re-run
  EXPECT_EQ(replayed.iterations, 3);
}

TEST_F(RequestJournalTest, SequenceNumberingContinuesAcrossGenerations) {
  {
    JournalReplay replay;
    auto journal = OpenOrDie(&replay);
    ASSERT_TRUE(journal->Admit(MakeRequest("a")).ok());   // seq 1
    auto second = journal->Admit(MakeRequest("b"));       // seq 2
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*second, 2u);
  }
  JournalReplay replay;
  auto journal = OpenOrDie(&replay);
  ASSERT_EQ(replay.pending.size(), 2u);
  auto next = journal->Admit(MakeRequest("c"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3u);  // above every live seq — no collision
}

TEST_F(RequestJournalTest, TornTailIsDroppedOnReplay) {
  {
    JournalReplay replay;
    auto journal = OpenOrDie(&replay);
    ASSERT_TRUE(journal->Admit(MakeRequest("whole")).ok());
  }
  // Simulate a torn append: a half-written record with no newline at the
  // tail, exactly what SIGKILL mid-write(2) leaves behind.
  auto contents = ReadFileToString(path_);
  ASSERT_TRUE(contents.ok());
  const std::string torn = *contents + "TDACJ1 deadbeef admit 2 trunc";
  ASSERT_TRUE(AtomicWriteFile(path_, torn).ok());

  JournalReplay replay;
  auto journal = OpenOrDie(&replay);
  ASSERT_EQ(replay.pending.size(), 1u);  // the whole record survives
  EXPECT_EQ(replay.pending[0].request.id, "whole");
  EXPECT_EQ(replay.dropped, 1u);  // the torn tail is counted, not fatal
}

TEST_F(RequestJournalTest, CorruptCrcDropsOnlyThatRecord) {
  {
    JournalReplay replay;
    auto journal = OpenOrDie(&replay);
    ASSERT_TRUE(journal->Admit(MakeRequest("first")).ok());
    ASSERT_TRUE(journal->Admit(MakeRequest("second")).ok());
  }
  auto contents = ReadFileToString(path_);
  ASSERT_TRUE(contents.ok());
  // Flip one byte inside the first record's body (past the CRC field).
  std::string corrupted = *contents;
  const size_t flip = corrupted.find("admit 1");
  ASSERT_NE(flip, std::string::npos);
  corrupted[flip] = 'X';
  ASSERT_TRUE(AtomicWriteFile(path_, corrupted).ok());

  JournalReplay replay;
  auto journal = OpenOrDie(&replay);
  ASSERT_EQ(replay.pending.size(), 1u);  // only the intact record replays
  EXPECT_EQ(replay.pending[0].request.id, "second");
  EXPECT_EQ(replay.dropped, 1u);
}

TEST_F(RequestJournalTest, GarbageLinesAndWrongMagicAreSkipped) {
  const std::string garbage =
      "not a journal line\n"
      "TDACJ9 00000000 admit 1 run%20id%3Dx\n"  // wrong magic version
      "\n" +
      FormatJournalRecord("admit 5 " + EncodeToken("run id=ok claims=c.csv")) +
      "\n";
  ASSERT_TRUE(AtomicWriteFile(path_, garbage).ok());
  JournalReplay replay;
  auto journal = OpenOrDie(&replay);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].seq, 5u);
  EXPECT_EQ(replay.pending[0].request.id, "ok");
  EXPECT_GE(replay.dropped, 2u);
  auto next = journal->Admit(MakeRequest("next"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 6u);
}

TEST_F(RequestJournalTest, EnospcFailsAdmitCleanlyThenRecovers) {
  JournalReplay replay;
  auto journal = OpenOrDie(&replay);
  ASSERT_TRUE(journal->Admit(MakeRequest("before")).ok());
  {
    IoFaultInjector injector(IoFaultInjector::Mode::kEnospc,
                             /*trigger_on_call=*/1);
    ScopedIoFaultInjector scoped(&injector);
    auto failed = journal->Admit(MakeRequest("doomed"));
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(injector.triggered_count(), 1);
  }
  EXPECT_EQ(journal->stats().append_failures, 1u);
  // The disk came back: the journal keeps appending (newline recovery
  // quarantines whatever the failed write left behind).
  auto after = journal->Admit(MakeRequest("after"));
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_TRUE(journal->Complete(*after, MakeResponse("after")).ok());
  journal->Emitted(*after);

  // And the file still replays exactly the live set.
  journal.reset();
  JournalReplay reopened;
  auto second = RequestJournal::Open(path_, &reopened);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(reopened.pending.size(), 1u);
  EXPECT_EQ(reopened.pending[0].request.id, "before");
}

TEST_F(RequestJournalTest, ShortWriteIsQuarantinedByNewlineRecovery) {
  JournalReplay replay;
  auto journal = OpenOrDie(&replay);
  {
    IoFaultInjector injector(IoFaultInjector::Mode::kShortWrite,
                             /*trigger_on_call=*/1);
    ScopedIoFaultInjector scoped(&injector);
    EXPECT_FALSE(journal->Admit(MakeRequest("torn")).ok());
  }
  // The next successful append must not glue onto the torn half-record.
  auto ok_seq = journal->Admit(MakeRequest("clean"));
  ASSERT_TRUE(ok_seq.ok());

  journal.reset();
  JournalReplay reopened;
  auto second = RequestJournal::Open(path_, &reopened);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(reopened.pending.size(), 1u);
  EXPECT_EQ(reopened.pending[0].request.id, "clean");
}

TEST_F(RequestJournalTest, CompactionBoundsTheFileAndClearsTemp) {
  JournalReplay replay;
  auto journal = OpenOrDie(&replay);
  // Push enough delivered work through to trip automatic compaction at
  // least once (threshold: 64 delivered records and 64 KiB of file).
  for (int i = 0; i < 400; ++i) {
    auto seq = journal->Admit(MakeRequest("r" + std::to_string(i)));
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(
        journal->Complete(*seq, MakeResponse("r" + std::to_string(i))).ok());
    journal->Emitted(*seq);
  }
  const RequestJournal::Stats stats = journal->stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_EQ(stats.live, 0u);
  // ~400 admit+done+emit cycles would be hundreds of KiB unbounded; the
  // compacted file must be a fraction of that.
  EXPECT_LT(stats.file_bytes, 64u * 1024);
  EXPECT_FALSE(FileExists(AtomicWriteTempPath(path_)));

  ASSERT_TRUE(journal->Compact().ok());
  EXPECT_EQ(journal->stats().file_bytes, 0u);
}

TEST_F(RequestJournalTest, ClassifyJournalHandlesAllThreeStates) {
  // Build a journal by hand through the public API, crash-stop it, and
  // check the classifier's view of each lifecycle stage.
  {
    JournalReplay replay;
    auto journal = OpenOrDie(&replay);
    auto delivered = journal->Admit(MakeRequest("delivered"));
    ASSERT_TRUE(delivered.ok());
    ASSERT_TRUE(journal->Complete(*delivered, MakeResponse("delivered")).ok());
    journal->Emitted(*delivered);

    auto unacked = journal->Admit(MakeRequest("unacked"));
    ASSERT_TRUE(unacked.ok());
    ASSERT_TRUE(journal->Complete(*unacked, MakeResponse("unacked")).ok());

    auto pending = journal->Admit(MakeRequest("pending"));
    ASSERT_TRUE(pending.ok());
  }
  auto contents = ReadFileToString(path_);
  ASSERT_TRUE(contents.ok());
  const JournalReplay replay = ClassifyJournal(*contents);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].request.id, "pending");
  ASSERT_EQ(replay.unacked.size(), 1u);
  EXPECT_EQ(replay.unacked[0].response.id, "unacked");
  EXPECT_EQ(replay.delivered, 1u);
}

}  // namespace
}  // namespace tdac
