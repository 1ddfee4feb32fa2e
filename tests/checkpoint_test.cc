// Tests for the checkpoint format and the Checkpointer (common/checkpoint.h):
// round-trips, one distinct Status per corruption mode (torn, bit-flipped,
// wrong-magic, future-version — seeded like the gen/corrupt conventions so
// failures reproduce), last-good fallback, interval snapshots, the context
// binding that keeps a slot from resuming a different run's state, and the
// payload codec (PayloadWriter/PayloadReader) every slot is written with.

#include "common/checkpoint.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/io.h"
#include "common/random.h"
#include "td/truth_discovery.h"
#include "test_util.h"

namespace tdac {
namespace {

/// The run context the Checkpointer tests store and load under.
constexpr std::string_view kContext = "TD-AC fp=1234 round=0";

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
  EXPECT_TRUE(ckpt.StoreNow("slot", kContext, "payload").ok());
  int calls = 0;
  EXPECT_TRUE(ckpt.MaybeStore("slot", kContext, [&] {
                    ++calls;
                    return std::string("payload");
                  })
                  .ok());
  EXPECT_EQ(calls, 0);
  auto loaded = ckpt.LoadForResume("slot", kContext);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().has_value());
  EXPECT_TRUE(ckpt.Remove("slot").ok());
}

TEST_F(CheckpointTest, ResumeOffIgnoresExistingSnapshots) {
  {
    Checkpointer writer = MakeCheckpointer();
    ASSERT_TRUE(writer.StoreNow("slot", kContext, "payload").ok());
  }
  Checkpointer ckpt = MakeCheckpointer(/*resume=*/false);
  auto loaded = ckpt.LoadForResume("slot", kContext);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().has_value());
}

TEST_F(CheckpointTest, StoreThenResumeRoundTrips) {
  Checkpointer ckpt = MakeCheckpointer();
  ASSERT_TRUE(ckpt.StoreNow("slot", kContext, "state v1").ok());
  auto loaded = ckpt.LoadForResume("slot", kContext);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(**loaded, "state v1");
}

TEST_F(CheckpointTest, SecondStoreRotatesLastGood) {
  Checkpointer ckpt = MakeCheckpointer();
  ASSERT_TRUE(ckpt.StoreNow("slot", kContext, "state v1").ok());
  ASSERT_TRUE(ckpt.StoreNow("slot", kContext, "state v2").ok());
  EXPECT_TRUE(FileExists(Path("slot.ckpt")));
  EXPECT_TRUE(FileExists(Path("slot.ckpt.prev")));
  // The file holds the context line ahead of the payload.
  auto prev = LoadCheckpoint(Path("slot.ckpt.prev"));
  ASSERT_TRUE(prev.ok()) << prev.status();
  EXPECT_EQ(prev.value(), "CTX TD-AC%20fp=1234%20round=0\nstate v1");
  auto loaded = ckpt.LoadForResume("slot", kContext);
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
    ASSERT_TRUE(ckpt.StoreNow(slot, kContext, "good state").ok());
    ASSERT_TRUE(ckpt.StoreNow(slot, kContext, "newer state").ok());
    c.corrupt(this, Path(slot + ".ckpt"));
    auto loaded = ckpt.LoadForResume(slot, kContext);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_TRUE(loaded.value().has_value()) << "fallback did not engage";
    EXPECT_EQ(**loaded, "good state");
  }
}

TEST_F(CheckpointTest, AllSnapshotsCorruptMeansFreshStart) {
  Checkpointer ckpt = MakeCheckpointer();
  ASSERT_TRUE(ckpt.StoreNow("slot", kContext, "v1").ok());
  ASSERT_TRUE(ckpt.StoreNow("slot", kContext, "v2").ok());
  ASSERT_TRUE(WriteFile(Path("slot.ckpt"), "junk").ok());
  ASSERT_TRUE(WriteFile(Path("slot.ckpt.prev"), "junk").ok());
  auto loaded = ckpt.LoadForResume("slot", kContext);
  ASSERT_TRUE(loaded.ok()) << loaded.status();  // corrupt never aborts a run
  EXPECT_FALSE(loaded.value().has_value());
}

TEST_F(CheckpointTest, MissingCurrentFallsBackToLastGood) {
  Checkpointer ckpt = MakeCheckpointer();
  ASSERT_TRUE(ckpt.StoreNow("slot", kContext, "v1").ok());
  ASSERT_TRUE(ckpt.StoreNow("slot", kContext, "v2").ok());
  // The crash window between the two renames of StoreNow: current gone,
  // only .prev remains.
  ASSERT_TRUE(RemoveFile(Path("slot.ckpt")).ok());
  auto loaded = ckpt.LoadForResume("slot", kContext);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(**loaded, "v1");
}

TEST_F(CheckpointTest, RemoveClearsAllSlotFiles) {
  Checkpointer ckpt = MakeCheckpointer();
  ASSERT_TRUE(ckpt.StoreNow("slot", kContext, "v1").ok());
  ASSERT_TRUE(ckpt.StoreNow("slot", kContext, "v2").ok());
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
  ASSERT_TRUE(throttled.MaybeStore("slot", kContext, payload).ok());
  ASSERT_TRUE(throttled.MaybeStore("slot", kContext, payload).ok());
  EXPECT_EQ(calls, 1);
  auto loaded = throttled.LoadForResume("slot", kContext);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(**loaded, "state 1");

  // interval <= 0: every call stores. Distinct slot name so the day-long
  // throttle above doesn't interfere.
  Checkpointer eager = MakeCheckpointer(true, 0.0);
  ASSERT_TRUE(eager.MaybeStore("eager", kContext, payload).ok());
  ASSERT_TRUE(eager.MaybeStore("eager", kContext, payload).ok());
  EXPECT_EQ(calls, 3);
}

// --- Context binding -------------------------------------------------------

TEST_F(CheckpointTest, ContextRoundTripsAndRejectsMismatch) {
  Checkpointer ckpt = MakeCheckpointer();
  ASSERT_TRUE(ckpt.StoreNow("slot", kContext, "inner state\n").ok());
  auto matched = ckpt.LoadForResume("slot", kContext);
  ASSERT_TRUE(matched.ok()) << matched.status();
  ASSERT_TRUE(matched.value().has_value());
  EXPECT_EQ(**matched, "inner state\n");
  for (std::string_view other :
       {"TD-AC fp=9999 round=0", "TD-AC fp=1234 round=1", ""}) {
    auto mismatched = ckpt.LoadForResume("slot", other);
    ASSERT_TRUE(mismatched.ok()) << mismatched.status();
    EXPECT_FALSE(mismatched.value().has_value()) << other;
  }
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

// --- Payload codec ----------------------------------------------------------

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST_F(CheckpointTest, PayloadRoundTripsEveryFieldType) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::string awkward = "two words\nand a 100% newline";
  PayloadWriter writer;
  (writer << 3 << size_t{18446744073709551615u} << int64_t{-7} << true
          << false)
      .End();
  (writer << -0.0 << nan << -inf << 0.1 << awkward << "" << "plain").End();
  const std::string payload = writer.Take();
  EXPECT_EQ(payload,
            "3 18446744073709551615 -7 1 0\n"
            "8000000000000000 7ff8000000000000 fff0000000000000 "
            "3fb999999999999a two%20words%0aand%20a%20100%25%20newline % "
            "plain\n");

  PayloadReader reader(payload);
  int i = 0;
  size_t big = 0;
  int64_t negative = 0;
  bool yes = false;
  bool no = true;
  double zero = 1.0, not_a_number = 0.0, minus_inf = 0.0, tenth = 0.0;
  std::string text, empty = "x", plain;
  reader >> i >> big >> negative >> yes >> no >> zero >> not_a_number >>
      minus_inf >> tenth >> text >> empty >> plain;
  ASSERT_TRUE(reader.Finish().ok()) << reader.Finish();
  EXPECT_EQ(i, 3);
  EXPECT_EQ(big, 18446744073709551615u);
  EXPECT_EQ(negative, -7);
  EXPECT_TRUE(yes);
  EXPECT_FALSE(no);
  EXPECT_EQ(Bits(zero), Bits(-0.0));
  EXPECT_EQ(Bits(not_a_number), Bits(nan));
  EXPECT_EQ(Bits(minus_inf), Bits(-inf));
  EXPECT_EQ(Bits(tenth), Bits(0.1));
  EXPECT_EQ(text, awkward);
  EXPECT_EQ(empty, "");
  EXPECT_EQ(plain, "plain");
}

TEST_F(CheckpointTest, MalformedPayloadsAreInvalidArgument) {
  // Each payload is a count and then that many fields of one type.
  struct Case {
    const char* payload;
    void (*read_field)(PayloadReader&);
    const char* defect;  // expected in the Finish() message
  };
  const auto read_int = [](PayloadReader& in) {
    int value = 0;
    in >> value;
  };
  const Case cases[] = {
      {"18446744073709551615\n1 2\n", read_int, "exceeds the payload"},
      {"1\n7\nextra\n", read_int, "trailing bytes"},
      {"1x\n", read_int, "'1x'"},
      {"2\n7\n", read_int, "ends early"},
      {"1\n2\n",
       [](PayloadReader& in) {
         bool value = false;
         in >> value;
       },
       "'2'"},
      {"1\n3ff00000\n",
       [](PayloadReader& in) {
         double value = 0.0;
         in >> value;
       },
       "'3ff00000'"},
      {"1\nbad%zz\n",
       [](PayloadReader& in) {
         std::string value;
         in >> value;
       },
       "'bad%zz'"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.payload);
    PayloadReader reader(c.payload);
    const size_t count = reader.Count();
    EXPECT_LE(count, std::string_view(c.payload).size());
    for (size_t k = 0; k < count; ++k) c.read_field(reader);
    const Status status = reader.Finish();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find(c.defect), std::string::npos) << status;
    // Errors are sticky: a read after the defect leaves its target alone.
    int after = 42;
    reader >> after;
    EXPECT_EQ(after, 42);
  }
}

// A CRC-valid result payload claiming 2^64-1 trust values once made a
// resume abort with std::length_error; the count bound rejects it.
TEST_F(CheckpointTest, ResultPayloadWithHugeCountIsInvalidArgument) {
  auto parsed =
      DeserializeTruthDiscoveryResult("R 1 1 0\nT 18446744073709551615\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
      << parsed.status();
}

TEST_F(CheckpointTest, ResultPayloadFormatIsPinned) {
  TruthDiscoveryResult result;
  result.iterations = 4;
  result.converged = true;
  result.stop_reason = StopReason::kDeadline;
  result.source_trust = {0.5, -0.0};
  result.predicted.Set(1, 2, Value("new york"));
  result.predicted.Set(0, 1, Value(int64_t{7}));
  result.confidence[ObjectAttrKey(1, 2)] = 1.0;
  const std::string payload = SerializeTruthDiscoveryResult(result);
  EXPECT_EQ(payload,
            "R 4 1 2\n"
            "T 2 3fe0000000000000 8000000000000000\n"
            "I 2\n"
            "1 1 7\n"
            "4294967298 0 new%20york\n"
            "C 1\n"
            "4294967298 3ff0000000000000\n");
  auto parsed = DeserializeTruthDiscoveryResult(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeTruthDiscoveryResult(parsed.value()), payload);
  EXPECT_FALSE(DeserializeTruthDiscoveryResult(payload + "x\n").ok());
}

}  // namespace
}  // namespace tdac
