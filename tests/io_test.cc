// Unit tests for the durable-I/O layer (common/io.h): AtomicWriteFile's
// all-or-nothing contract, the deterministic temp-file protocol, and every
// injectable fault mode — each one pinned to the exact post-failure disk
// state a reader (or a resuming run) would observe.

#include "common/io.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "test_util.h"

namespace tdac {
namespace {

/// Fresh per-test scratch directory (testutil::ScratchDir).
class IoTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = scratch_.path(); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string ReadAll(const std::string& path) const {
    auto text = ReadFileToString(path);
    EXPECT_TRUE(text.ok()) << text.status();
    return text.ok() ? text.value() : std::string();
  }

  testutil::ScratchDir scratch_;
  std::string dir_;
};

TEST_F(IoTest, WritesNewFile) {
  const std::string path = Path("a.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "hello\n").ok());
  EXPECT_EQ(ReadAll(path), "hello\n");
  EXPECT_FALSE(FileExists(AtomicWriteTempPath(path)));
}

TEST_F(IoTest, OverwritesExistingFile) {
  const std::string path = Path("a.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "old").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "new contents").ok());
  EXPECT_EQ(ReadAll(path), "new contents");
}

TEST_F(IoTest, WritesEmptyAndLargeContents) {
  const std::string empty = Path("empty.txt");
  ASSERT_TRUE(AtomicWriteFile(empty, "").ok());
  EXPECT_EQ(ReadAll(empty), "");

  // Spans several 64 KiB write chunks, so chunking round-trips too.
  std::string big;
  for (int i = 0; i < 50000; ++i) big += "line " + std::to_string(i) + "\n";
  const std::string path = Path("big.txt");
  ASSERT_TRUE(AtomicWriteFile(path, big).ok());
  EXPECT_EQ(ReadAll(path), big);
}

TEST_F(IoTest, TempPathIsDeterministicSibling) {
  EXPECT_EQ(AtomicWriteTempPath("/x/y/z.csv"), "/x/y/z.csv.tmp");
}

TEST_F(IoTest, StaleTempFromDeadWriterIsOverwritten) {
  const std::string path = Path("a.txt");
  // A previous writer died mid-write, leaving a torn temp behind.
  ASSERT_TRUE(WriteFile(AtomicWriteTempPath(path), "torn garbag").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "fresh").ok());
  EXPECT_EQ(ReadAll(path), "fresh");
  EXPECT_FALSE(FileExists(AtomicWriteTempPath(path)));
}

TEST_F(IoTest, FailsOnUnwritableDirectory) {
  Status s = AtomicWriteFile(dir_ + "/no/such/dir/a.txt", "x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// --- Fault injection -------------------------------------------------------

TEST_F(IoTest, FailWriteLeavesTargetUntouched) {
  const std::string path = Path("a.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "previous").ok());

  IoFaultInjector fault(IoFaultInjector::Mode::kFailWrite, 1);
  ScopedIoFaultInjector scope(&fault);
  Status s = AtomicWriteFile(path, "replacement");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(fault.triggered_count(), 1);
  // Clean failure: old contents intact, temp unlinked.
  EXPECT_EQ(ReadAll(path), "previous");
  EXPECT_FALSE(FileExists(AtomicWriteTempPath(path)));
}

TEST_F(IoTest, ShortWriteIsDetectedAndCleanedUp) {
  const std::string path = Path("a.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "previous").ok());

  IoFaultInjector fault(IoFaultInjector::Mode::kShortWrite, 1);
  ScopedIoFaultInjector scope(&fault);
  Status s = AtomicWriteFile(path, "replacement contents");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(fault.triggered_count(), 1);
  EXPECT_EQ(ReadAll(path), "previous");
  EXPECT_FALSE(FileExists(AtomicWriteTempPath(path)));
}

TEST_F(IoTest, EnospcSurfacesAsIoError) {
  const std::string path = Path("a.txt");
  IoFaultInjector fault(IoFaultInjector::Mode::kEnospc, 1);
  ScopedIoFaultInjector scope(&fault);
  Status s = AtomicWriteFile(path, "x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("space left"), std::string::npos) << s;
  EXPECT_FALSE(FileExists(path));
}

TEST_F(IoTest, TriggerOnNthWriteSparesEarlierCalls) {
  const std::string a = Path("a.txt");
  const std::string b = Path("b.txt");
  IoFaultInjector fault(IoFaultInjector::Mode::kFailWrite, 2);
  ScopedIoFaultInjector scope(&fault);
  EXPECT_TRUE(AtomicWriteFile(a, "first").ok());   // write #1: clean
  EXPECT_FALSE(AtomicWriteFile(b, "second").ok());  // write #2: faulted
  EXPECT_EQ(fault.triggered_count(), 1);
  EXPECT_EQ(ReadAll(a), "first");
  EXPECT_FALSE(FileExists(b));
}

TEST_F(IoTest, CrashBeforeRenameLeavesFullTempAndOldTarget) {
  const std::string path = Path("a.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "previous").ok());

  IoFaultInjector fault(IoFaultInjector::Mode::kCrashBeforeRename, 1);
  ScopedIoFaultInjector scope(&fault);
  Status s = AtomicWriteFile(path, "replacement");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(fault.triggered_count(), 1);
  // Exactly a real pre-rename crash: target unchanged, temp complete.
  EXPECT_EQ(ReadAll(path), "previous");
  EXPECT_TRUE(FileExists(AtomicWriteTempPath(path)));
  EXPECT_EQ(ReadAll(AtomicWriteTempPath(path)), "replacement");
}

TEST_F(IoTest, CrashAfterRenameLeavesNewContentsVisible) {
  const std::string path = Path("a.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "previous").ok());

  IoFaultInjector fault(IoFaultInjector::Mode::kCrashAfterRename, 1);
  ScopedIoFaultInjector scope(&fault);
  Status s = AtomicWriteFile(path, "replacement");
  // The caller sees a failure it must not trust: the write actually landed.
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(fault.triggered_count(), 1);
  EXPECT_EQ(ReadAll(path), "replacement");
  EXPECT_FALSE(FileExists(AtomicWriteTempPath(path)));
}

// --- Helpers ---------------------------------------------------------------

TEST_F(IoTest, RemoveFileIsIdempotent) {
  const std::string path = Path("a.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "x").ok());
  EXPECT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(RemoveFile(path).ok());  // already gone: still OK
}

TEST_F(IoTest, RenameFileMovesAndFailsOnMissingSource) {
  const std::string from = Path("from.txt");
  const std::string to = Path("to.txt");
  ASSERT_TRUE(AtomicWriteFile(from, "payload").ok());
  EXPECT_TRUE(RenameFile(from, to).ok());
  EXPECT_FALSE(FileExists(from));
  EXPECT_EQ(ReadAll(to), "payload");
  EXPECT_FALSE(RenameFile(Path("missing"), to).ok());
}

TEST_F(IoTest, ListDirFilesIsSortedAndSkipsDirectories) {
  ASSERT_TRUE(AtomicWriteFile(Path("b.txt"), "b").ok());
  ASSERT_TRUE(AtomicWriteFile(Path("a.txt"), "a").ok());
  ASSERT_TRUE(EnsureDirectory(Path("subdir")).ok());
  auto files = ListDirFiles(dir_);
  ASSERT_TRUE(files.ok()) << files.status();
  EXPECT_EQ(files.value(), (std::vector<std::string>{"a.txt", "b.txt"}));
  EXPECT_FALSE(ListDirFiles(Path("missing")).ok());
}

TEST_F(IoTest, EnsureDirectoryIsIdempotentAndRejectsFiles) {
  EXPECT_TRUE(EnsureDirectory(dir_).ok());  // already exists
  const std::string file = Path("plain.txt");
  ASSERT_TRUE(AtomicWriteFile(file, "x").ok());
  EXPECT_FALSE(EnsureDirectory(file).ok());
}

TEST_F(IoTest, Crc32MatchesKnownVectors) {
  // The CRC-32/ISO-HDLC check value every implementation agrees on.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

}  // namespace
}  // namespace tdac
