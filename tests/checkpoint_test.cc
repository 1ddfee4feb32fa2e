// Tests for the checkpoint format and the Checkpointer (common/checkpoint.h):
// round-trips, one distinct Status per corruption mode (torn, bit-flipped,
// wrong-magic, future-version — seeded like the gen/corrupt conventions so
// failures reproduce), last-good fallback, interval snapshots, the context
// binding that keeps a slot from resuming a different run's state, and the
// payload codec (PayloadWriter/PayloadReader) every slot is written with.

#include "common/checkpoint.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/io.h"
#include "common/random.h"
#include "data/dataset_builder.h"
#include "gen/synthetic.h"
#include "td/majority_vote.h"
#include "td/truth_discovery.h"
#include "tdac/tdac.h"
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
  const Dataset data = testutil::BuildDataset({{"s", "o", "a", 1}});
  auto parsed = DeserializeTruthDiscoveryResult(
      "R 1 1 0\nT 18446744073709551615\n", data);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
      << parsed.status();
}

/// Two sources, objects o0 and o1, attributes a0..a2: (0, 1) is claimed
/// as int 7 and (1, 2) as "new york".
Dataset PinnedResultData() {
  DatasetBuilder builder;
  EXPECT_TRUE(builder.AddClaim("s0", "o0", "a0", Value(int64_t{1})).ok());
  EXPECT_TRUE(builder.AddClaim("s0", "o0", "a1", Value(int64_t{7})).ok());
  EXPECT_TRUE(builder.AddClaim("s1", "o1", "a2", Value("new york")).ok());
  return builder.Build().MoveValue();
}

TEST_F(CheckpointTest, ResultPayloadFormatIsPinned) {
  const Dataset data = PinnedResultData();
  const ValueDict& dict = data.value_dict();
  TruthDiscoveryResult result;
  result.iterations = 4;
  result.converged = true;
  result.stop_reason = StopReason::kDeadline;
  result.source_trust = {0.5, -0.0};
  result.predicted.Add(ObjectAttrKey(0, 1), dict.Find(Value(int64_t{7})),
                       0.25);
  result.predicted.Add(ObjectAttrKey(1, 2), dict.Find(Value("new york")),
                       1.0);
  const std::string payload = SerializeTruthDiscoveryResult(result, data);
  EXPECT_EQ(payload,
            "R 4 1 2\n"
            "T 2 3fe0000000000000 8000000000000000\n"
            "I 2\n"
            "1 1 7\n"
            "4294967298 0 new%20york\n"
            "C 2\n"
            "1 3fd0000000000000\n"
            "4294967298 3ff0000000000000\n");
  auto parsed = DeserializeTruthDiscoveryResult(payload, data);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeTruthDiscoveryResult(parsed.value(), data), payload);
  EXPECT_FALSE(DeserializeTruthDiscoveryResult(payload + "x\n", data).ok());
}

// A result payload is restored against a dataset: an item it does not
// hold, a value no claim on the item carries, or confidences keyed
// otherwise than the predictions do not fit, and are refused rather than
// resumed from.
TEST_F(CheckpointTest, ResultPayloadThatDoesNotFitTheDatasetIsRefused) {
  const Dataset data = PinnedResultData();
  // 0.0 as the payload writes it; item 1 is (o0, a1), 4294967298 (o1, a2).
  const std::string zero = " 0000000000000000\n";
  const std::string head = "R 4 1 0\nT 2 0000000000000000" + zero;
  const std::string items = "I 1\n1 1 7\nC 1\n1" + zero;
  const std::string out_of_order = "I 2\n4294967298 0 new%20york\n1 1 7\n"
                                   "C 2\n4294967298" +
                                   zero + "1" + zero;
  const struct {
    const char* what;
    std::string payload;
  } cases[] = {
      {"a value the dataset lacks", head + "I 1\n1 1 8\nC 1\n1" + zero},
      {"a value claimed on another item",
       head + "I 1\n4294967298 1 7\nC 1\n4294967298" + zero},
      {"an item the dataset does not hold",
       head + "I 1\n2 1 7\nC 1\n2" + zero},
      {"a confidence for another item", head + "I 1\n1 1 7\nC 1\n0" + zero},
      {"a missing confidence", head + "I 1\n1 1 7\nC 0\n"},
      {"items out of order", head + out_of_order},
      {"a trust vector sized otherwise than the sources",
       "R 4 1 0\nT 1" + zero + items},
  };
  for (const auto& c : cases) {
    auto parsed = DeserializeTruthDiscoveryResult(c.payload, data);
    ASSERT_FALSE(parsed.ok()) << c.what;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << c.what << ": " << parsed.status();
  }
  auto fits = DeserializeTruthDiscoveryResult(head + items, data);
  EXPECT_TRUE(fits.ok()) << fits.status();
}

/// Forwards to `base` and cancels `token` as its second run (TD-AC's first
/// group run) starts, so the reference slot is stored and the pass trips.
class CancelOnSecondRun : public TruthDiscovery {
 public:
  CancelOnSecondRun(const TruthDiscovery* base, CancellationToken* token)
      : base_(base), token_(token) {}
  std::string_view name() const override { return base_->name(); }

 protected:
  Result<TruthDiscoveryResult> DiscoverGuarded(
      const DatasetLike& data, const RunGuard& guard) const override {
    if (runs_.fetch_add(1) == 1) token_->Cancel();
    return base_->Discover(data, guard);
  }

 private:
  const TruthDiscovery* base_;
  CancellationToken* token_;
  mutable std::atomic<int> runs_{0};
};

// A CRC-valid reference slot whose payload names a value the dataset lacks
// is refused on resume: TD-AC warns, recomputes the reference run, and
// lands on the uninterrupted answer.
TEST_F(CheckpointTest, ReferenceNamingAValueTheDatasetLacksIsRecomputed) {
  auto config = PaperSyntheticConfig(2, /*seed=*/42);
  ASSERT_TRUE(config.ok()) << config.status();
  config->num_objects = 100;
  auto generated = GenerateSynthetic(*config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const Dataset& data = generated->dataset;
  const MajorityVote majority;
  Checkpointer ckpt = MakeCheckpointer();
  auto make = [&](Checkpointer* checkpointer, const TruthDiscovery* base) {
    TdacOptions options;
    options.base = base;
    options.threads = 1;
    options.checkpointer = checkpointer;
    return std::make_unique<Tdac>(options);
  };
  {
    CancellationToken token;
    CancelOnSecondRun base(&majority, &token);
    RunGuard guard(&token);
    auto cut = make(&ckpt, &base)->Discover(data, guard);
    ASSERT_TRUE(cut.ok()) << cut.status();
    ASSERT_TRUE(cut->degraded());
  }
  const std::string slot = Path("tdac.r0.reference.ckpt");
  auto stored = LoadCheckpoint(slot);
  ASSERT_TRUE(stored.ok()) << stored.status();
  // The first predicted item's value becomes a string no claim carries.
  std::string text = stored.MoveValue();
  const size_t items = text.find("\nI ");
  ASSERT_NE(items, std::string::npos) << text;
  const size_t record = text.find('\n', items + 1) + 1;
  const size_t kind = text.find(' ', record) + 1;
  const size_t end = text.find('\n', kind);
  text.replace(kind, end - kind, "0 no-such-value");
  const std::string payload = text.substr(text.find('\n') + 1);
  auto refused = DeserializeTruthDiscoveryResult(payload, data);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("no-such-value"),
            std::string::npos)
      << refused.status();
  ASSERT_TRUE(SaveCheckpoint(slot, text).ok());

  ::testing::internal::CaptureStderr();
  auto resumed = make(&ckpt, &majority)->Discover(data);
  const std::string log = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_NE(log.find("reference checkpoint payload unusable"),
            std::string::npos)
      << log;
  auto uninterrupted = make(nullptr, &majority)->Discover(data);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();
  EXPECT_EQ(SerializeTruthDiscoveryResult(resumed.value(), data),
            SerializeTruthDiscoveryResult(uninterrupted.value(), data));
}

}  // namespace
}  // namespace tdac
