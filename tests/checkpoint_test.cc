// Tests for the checkpoint format and the Checkpointer (common/checkpoint.h):
// round-trips, one distinct Status per corruption mode (torn, bit-flipped,
// wrong-magic, future-version — seeded like the gen/corrupt conventions so
// failures reproduce), last-good fallback, interval snapshots, and the
// context binding that keeps a slot from resuming a different run's state.

#include "common/checkpoint.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/io.h"
#include "common/random.h"
#include "test_util.h"

namespace tdac {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = scratch_.path(); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  /// A Checkpointer over the scratch dir with resume on and no interval
  /// throttling (every MaybeStore call stores).
  Checkpointer MakeCheckpointer(bool resume = true,
                                double interval_ms = 0.0) const {
    CheckpointOptions options;
    options.dir = dir_;
    options.interval_ms = interval_ms;
    options.resume = resume;
    return Checkpointer(options);
  }

  /// Flips one seeded-random bit inside the payload region of a checkpoint
  /// file (same seed + same file -> same flipped bit, the gen/corrupt
  /// convention). Public so the corruption-case tables below can call it
  /// through plain function pointers.
 public:
  void FlipPayloadBit(const std::string& path, uint64_t seed) {
    auto contents = ReadFileToString(path);
    ASSERT_TRUE(contents.ok()) << contents.status();
    std::string text = contents.MoveValue();
    const size_t payload_start = text.find('\n') + 1;
    ASSERT_LT(payload_start, text.size()) << "no payload to corrupt";
    Rng rng(seed);
    const size_t byte =
        payload_start + static_cast<size_t>(
                            rng.NextBounded(text.size() - payload_start));
    text[byte] = static_cast<char>(text[byte] ^
                                   (1 << static_cast<int>(rng.NextBounded(8))));
    ASSERT_TRUE(WriteFile(path, text).ok());
  }

  testutil::ScratchDir scratch_;
  std::string dir_;
};

// --- Format ----------------------------------------------------------------

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  const std::string path = Path("a.ckpt");
  const std::string payload = "sweep 3\n1 0 2 3ff0000000000000 4 0 1 0 1\n";
  ASSERT_TRUE(SaveCheckpoint(path, payload).ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value(), payload);
}

TEST_F(CheckpointTest, RoundTripsEmptyAndBinaryPayloads) {
  const std::string path = Path("a.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, "").ok());
  auto empty = LoadCheckpoint(path);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty.value(), "");

  std::string binary;
  for (int i = 0; i < 256; ++i) binary += static_cast<char>(i);
  ASSERT_TRUE(SaveCheckpoint(path, binary).ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value(), binary);
}

// Each corruption mode gets its own distinct, precisely-worded Status.

TEST_F(CheckpointTest, RejectsWrongMagic) {
  const std::string path = Path("a.ckpt");
  ASSERT_TRUE(WriteFile(path, "NOTACKPT 1 00000000 0\n").ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
      << loaded.status();
}

TEST_F(CheckpointTest, RejectsMalformedHeader) {
  const std::string path = Path("a.ckpt");
  ASSERT_TRUE(WriteFile(path, "TDACCKPT one two\npayload").ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, RejectsFutureVersion) {
  const std::string path = Path("a.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, "payload", kCheckpointVersion + 1).ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("newer than this build"),
            std::string::npos)
      << loaded.status();
}

TEST_F(CheckpointTest, RejectsTruncatedPayload) {
  const std::string path = Path("a.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, "twelve bytes").ok());
  // Tear the tail off, as an interrupted non-atomic writer would.
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(
      WriteFile(path, contents.value().substr(0, contents.value().size() - 5))
          .ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("truncated payload (7 of 12 bytes)"),
            std::string::npos)
      << loaded.status();
}

TEST_F(CheckpointTest, RejectsTrailingGarbage) {
  const std::string path = Path("a.ckpt");
  ASSERT_TRUE(SaveCheckpoint(path, "twelve bytes").ok());
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(WriteFile(path, contents.value() + "extra").ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("trailing garbage"),
            std::string::npos)
      << loaded.status();
}

TEST_F(CheckpointTest, RejectsBitFlip) {
  const std::string path = Path("a.ckpt");
  ASSERT_TRUE(
      SaveCheckpoint(path, "a payload long enough to land a bit flip in")
          .ok());
  FlipPayloadBit(path, /*seed=*/42);
  auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("CRC mismatch"), std::string::npos)
      << loaded.status();
}

// --- Checkpointer ----------------------------------------------------------

TEST_F(CheckpointTest, DisabledCheckpointerIsANoOp) {
  Checkpointer ckpt{CheckpointOptions{}};
  EXPECT_FALSE(ckpt.enabled());
  EXPECT_TRUE(ckpt.StoreNow("slot", "payload").ok());
  int calls = 0;
  EXPECT_TRUE(ckpt.MaybeStore("slot", [&] {
                    ++calls;
                    return std::string("payload");
                  })
                  .ok());
  EXPECT_EQ(calls, 0);
  auto loaded = ckpt.LoadForResume("slot");
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().has_value());
  EXPECT_TRUE(ckpt.Remove("slot").ok());
}

TEST_F(CheckpointTest, ResumeOffIgnoresExistingSnapshots) {
  {
    Checkpointer writer = MakeCheckpointer();
    ASSERT_TRUE(writer.StoreNow("slot", "payload").ok());
  }
  Checkpointer ckpt = MakeCheckpointer(/*resume=*/false);
  auto loaded = ckpt.LoadForResume("slot");
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().has_value());
}

TEST_F(CheckpointTest, StoreThenResumeRoundTrips) {
  Checkpointer ckpt = MakeCheckpointer();
  ASSERT_TRUE(ckpt.StoreNow("slot", "state v1").ok());
  auto loaded = ckpt.LoadForResume("slot");
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(**loaded, "state v1");
}

TEST_F(CheckpointTest, SecondStoreRotatesLastGood) {
  Checkpointer ckpt = MakeCheckpointer();
  ASSERT_TRUE(ckpt.StoreNow("slot", "state v1").ok());
  ASSERT_TRUE(ckpt.StoreNow("slot", "state v2").ok());
  EXPECT_TRUE(FileExists(Path("slot.ckpt")));
  EXPECT_TRUE(FileExists(Path("slot.ckpt.prev")));
  auto prev = LoadCheckpoint(Path("slot.ckpt.prev"));
  ASSERT_TRUE(prev.ok()) << prev.status();
  EXPECT_EQ(prev.value(), "state v1");
  auto loaded = ckpt.LoadForResume("slot");
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(**loaded, "state v2");
}

// Every corruption mode of the *current* snapshot falls back to last-good.

TEST_F(CheckpointTest, CorruptCurrentFallsBackToLastGood) {
  struct Case {
    const char* name;
    void (*corrupt)(CheckpointTest*, const std::string&);
  };
  const Case cases[] = {
      {"truncated",
       [](CheckpointTest*, const std::string& path) {
         auto contents = ReadFileToString(path);
         ASSERT_TRUE(contents.ok());
         ASSERT_TRUE(WriteFile(path, contents.value().substr(
                                         0, contents.value().size() - 4))
                         .ok());
       }},
      {"bit-flipped",
       [](CheckpointTest* self, const std::string& path) {
         self->FlipPayloadBit(path, /*seed=*/7);
       }},
      {"wrong-magic",
       [](CheckpointTest*, const std::string& path) {
         ASSERT_TRUE(WriteFile(path, "GARBAGE!! not a checkpoint\n").ok());
       }},
      {"future-version",
       [](CheckpointTest*, const std::string& path) {
         ASSERT_TRUE(
             SaveCheckpoint(path, "from the future", kCheckpointVersion + 9)
                 .ok());
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Checkpointer ckpt = MakeCheckpointer();
    const std::string slot = std::string("slot_") + c.name;
    ASSERT_TRUE(ckpt.StoreNow(slot, "good state").ok());
    ASSERT_TRUE(ckpt.StoreNow(slot, "newer state").ok());
    c.corrupt(this, Path(slot + ".ckpt"));
    auto loaded = ckpt.LoadForResume(slot);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_TRUE(loaded.value().has_value()) << "fallback did not engage";
    EXPECT_EQ(**loaded, "good state");
  }
}

TEST_F(CheckpointTest, AllSnapshotsCorruptMeansFreshStart) {
  Checkpointer ckpt = MakeCheckpointer();
  ASSERT_TRUE(ckpt.StoreNow("slot", "v1").ok());
  ASSERT_TRUE(ckpt.StoreNow("slot", "v2").ok());
  ASSERT_TRUE(WriteFile(Path("slot.ckpt"), "junk").ok());
  ASSERT_TRUE(WriteFile(Path("slot.ckpt.prev"), "junk").ok());
  auto loaded = ckpt.LoadForResume("slot");
  ASSERT_TRUE(loaded.ok()) << loaded.status();  // corrupt never aborts a run
  EXPECT_FALSE(loaded.value().has_value());
}

TEST_F(CheckpointTest, MissingCurrentFallsBackToLastGood) {
  Checkpointer ckpt = MakeCheckpointer();
  ASSERT_TRUE(ckpt.StoreNow("slot", "v1").ok());
  ASSERT_TRUE(ckpt.StoreNow("slot", "v2").ok());
  // The crash window between the two renames of StoreNow: current gone,
  // only .prev remains.
  ASSERT_TRUE(RemoveFile(Path("slot.ckpt")).ok());
  auto loaded = ckpt.LoadForResume("slot");
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(**loaded, "v1");
}

TEST_F(CheckpointTest, RemoveClearsAllSlotFiles) {
  Checkpointer ckpt = MakeCheckpointer();
  ASSERT_TRUE(ckpt.StoreNow("slot", "v1").ok());
  ASSERT_TRUE(ckpt.StoreNow("slot", "v2").ok());
  ASSERT_TRUE(WriteFile(Path("slot.ckpt.tmp"), "torn").ok());
  ASSERT_TRUE(ckpt.Remove("slot").ok());
  auto files = ListDirFiles(dir_);
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(files.value().empty()) << files.value().size() << " left";
  EXPECT_TRUE(ckpt.Remove("slot").ok());  // idempotent
}

TEST_F(CheckpointTest, MaybeStoreHonoursInterval) {
  // A day-long interval: only the first call stores.
  Checkpointer throttled = MakeCheckpointer(true, /*interval_ms=*/8.64e7);
  int calls = 0;
  auto payload = [&] { return "state " + std::to_string(++calls); };
  ASSERT_TRUE(throttled.MaybeStore("slot", payload).ok());
  ASSERT_TRUE(throttled.MaybeStore("slot", payload).ok());
  EXPECT_EQ(calls, 1);
  auto loaded = throttled.LoadForResume("slot");
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(**loaded, "state 1");

  // interval <= 0: every call stores. Distinct slot name so the day-long
  // throttle above doesn't interfere.
  Checkpointer eager = MakeCheckpointer(true, 0.0);
  ASSERT_TRUE(eager.MaybeStore("eager", payload).ok());
  ASSERT_TRUE(eager.MaybeStore("eager", payload).ok());
  EXPECT_EQ(calls, 3);
}

// --- Context binding -------------------------------------------------------

TEST_F(CheckpointTest, ContextRoundTripsAndRejectsMismatch) {
  const std::string bound =
      BindCheckpointContext("TD-AC fp=1234 round=0", "inner state\n");
  auto matched = MatchCheckpointContext("TD-AC fp=1234 round=0", bound);
  ASSERT_TRUE(matched.has_value());
  EXPECT_EQ(*matched, "inner state\n");
  EXPECT_FALSE(MatchCheckpointContext("TD-AC fp=9999 round=0", bound));
  EXPECT_FALSE(MatchCheckpointContext("TD-AC fp=1234 round=1", bound));
  EXPECT_FALSE(MatchCheckpointContext("", bound).has_value());
}

// --- Token and double framing ----------------------------------------------

TEST_F(CheckpointTest, TokensRoundTripAwkwardBytes) {
  const std::string cases[] = {
      "",
      "plain",
      "with space",
      "percent%sign",
      std::string("emb\0edded", 9),
      "tab\tand\nnewline",
      "[(1,4), (2,5), (3,6)]",
  };
  for (const std::string& raw : cases) {
    const std::string token = EncodeToken(raw);
    EXPECT_EQ(token.find(' '), std::string::npos) << token;
    EXPECT_EQ(token.find('\n'), std::string::npos) << token;
    auto decoded = DecodeToken(token);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded.value(), raw);
  }
  EXPECT_FALSE(DecodeToken("trailing%4").ok());
  EXPECT_FALSE(DecodeToken("bad%zz").ok());
}

TEST_F(CheckpointTest, HexDoubleIsBitExact) {
  const double cases[] = {
      0.0,
      -0.0,
      1.0,
      -1.5,
      1.0 / 3.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  for (double value : cases) {
    auto parsed = ParseHexDouble(HexDouble(value));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    uint64_t in_bits = 0;
    uint64_t out_bits = 0;
    std::memcpy(&in_bits, &value, sizeof(in_bits));
    const double out = parsed.value();
    std::memcpy(&out_bits, &out, sizeof(out_bits));
    EXPECT_EQ(in_bits, out_bits) << HexDouble(value);
  }
  // NaN round-trips its exact bit pattern too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto parsed = ParseHexDouble(HexDouble(nan));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::isnan(parsed.value()));
  EXPECT_EQ(HexDouble(parsed.value()), HexDouble(nan));

  EXPECT_FALSE(ParseHexDouble("short").ok());
  EXPECT_FALSE(ParseHexDouble("zzzzzzzzzzzzzzzz").ok());
}

}  // namespace
}  // namespace tdac
