#include "data/dataset_io.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.h"
#include "common/csv.h"
#include "data/dataset_builder.h"
#include "data/dataset_view.h"
#include "data/profile.h"
#include "eval/metrics.h"
#include "eval/trust_eval.h"
#include "gen/exam.h"
#include "gen/flights.h"
#include "gen/scenario.h"
#include "gen/stocks.h"
#include "gen/synthetic.h"
#include "td/majority_vote.h"
#include "test_util.h"

namespace tdac {
namespace {

Dataset SmallDataset() {
  DatasetBuilder b;
  EXPECT_TRUE(b.AddClaim("s1", "o1", "a1", Value("red")).ok());
  EXPECT_TRUE(b.AddClaim("s1", "o1", "a2", Value(int64_t{7})).ok());
  EXPECT_TRUE(b.AddClaim("s2", "o1", "a1", Value("blue, dark")).ok());
  EXPECT_TRUE(b.AddClaim("s2", "o1", "a2", Value(2.5)).ok());
  return b.Build().MoveValue();
}

TEST(DatasetIoTest, CsvRoundTripPreservesClaims) {
  Dataset d = SmallDataset();
  std::string csv = DatasetToCsv(d);
  auto loaded = DatasetFromCsv(csv);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_claims(), d.num_claims());
  EXPECT_EQ(loaded->num_sources(), d.num_sources());
  EXPECT_EQ(loaded->num_attributes(), d.num_attributes());
  // Values round-trip with kinds intact.
  for (size_t i = 0; i < d.num_claims(); ++i) {
    EXPECT_EQ(loaded->claim(i), d.claim(i));
  }
  EXPECT_TRUE(loaded->claim(3).value.is_double());
}

TEST(DatasetIoTest, CsvHeaderPresent) {
  std::string csv = DatasetToCsv(SmallDataset());
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "source,object,attribute,kind,value");
}

TEST(DatasetIoTest, RejectsWrongFieldCount) {
  auto r = DatasetFromCsv("source,object,attribute,kind,value\na,b,c\n");
  EXPECT_FALSE(r.ok());
}

TEST(DatasetIoTest, RejectsUnknownKind) {
  auto r = DatasetFromCsv(
      "source,object,attribute,kind,value\ns,o,a,blob,x\n");
  EXPECT_FALSE(r.ok());
}

TEST(DatasetIoTest, FileRoundTrip) {
  Dataset d = SmallDataset();
  testutil::ScratchDir scratch;
  const std::string path = scratch.path() + "/tdac_ds.csv";
  ASSERT_TRUE(SaveDataset(d, path).ok());
  auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_claims(), d.num_claims());
}

TEST(GroundTruthIoTest, RoundTrip) {
  Dataset d = SmallDataset();
  GroundTruth truth;
  truth.Set(0, 0, Value("red"));
  truth.Set(0, 1, Value(int64_t{7}));
  std::string csv = GroundTruthToCsv(truth, d);
  auto loaded = GroundTruthFromCsv(csv, d);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, truth);
}

TEST(GroundTruthIoTest, UnknownObjectFails) {
  Dataset d = SmallDataset();
  auto r = GroundTruthFromCsv(
      "object,attribute,kind,value\nmystery,a1,string,x\n", d);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(GroundTruthIoTest, UnknownAttributeFails) {
  Dataset d = SmallDataset();
  auto r = GroundTruthFromCsv(
      "object,attribute,kind,value\no1,mystery,string,x\n", d);
  EXPECT_FALSE(r.ok());
}

TEST(GroundTruthIoTest, FileRoundTrip) {
  Dataset d = SmallDataset();
  GroundTruth truth;
  truth.Set(0, 0, Value("red"));
  testutil::ScratchDir scratch;
  const std::string path = scratch.path() + "/tdac_truth.csv";
  ASSERT_TRUE(SaveGroundTruth(truth, d, path).ok());
  auto loaded = LoadGroundTruth(path, d);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, truth);
}

TEST(SourceTrustIoTest, RoundTrip) {
  Dataset d = SmallDataset();
  std::vector<double> trust{0.875, 0.125};
  std::string csv = SourceTrustToCsv(trust, d);
  auto loaded = SourceTrustFromCsv(csv, d);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_NEAR((*loaded)[0], 0.875, 1e-9);
  EXPECT_NEAR((*loaded)[1], 0.125, 1e-9);
}

TEST(SourceTrustIoTest, UnknownSourceFails) {
  Dataset d = SmallDataset();
  auto r = SourceTrustFromCsv("source,trust\nmystery,0.5\n", d);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SourceTrustIoTest, MissingSourcesDefaultToZero) {
  Dataset d = SmallDataset();
  auto r = SourceTrustFromCsv("source,trust\ns2,0.75\n", d);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0], 0.0);
  EXPECT_DOUBLE_EQ((*r)[1], 0.75);
}

TEST(SourceTrustIoTest, FileRoundTrip) {
  Dataset d = SmallDataset();
  std::vector<double> trust{0.5, 1.0};
  testutil::ScratchDir scratch;
  const std::string path = scratch.path() + "/tdac_trust.csv";
  ASSERT_TRUE(SaveSourceTrust(trust, d, path).ok());
  auto loaded = LoadSourceTrust(path, d);
  ASSERT_TRUE(loaded.ok());
  EXPECT_NEAR((*loaded)[1], 1.0, 1e-9);
}

TEST(PredictionsTest, MergeKeepsKeysAscendingAndTheLastPartWins) {
  Predictions a;
  a.Add(ObjectAttrKey(0, 0), 1, 0.5);
  a.Add(ObjectAttrKey(0, 2), 2, 0.5);
  a.Add(ObjectAttrKey(1, 0), 3, 0.5);
  Predictions b;
  b.Add(ObjectAttrKey(0, 1), 4, 0.25);
  b.Add(ObjectAttrKey(0, 2), 5, 0.25);
  const Predictions* parts[] = {&a, &b, &a};
  const Predictions* last_b[] = {&a, &b};
  const Predictions merged = MergePredictions(last_b);
  EXPECT_EQ(merged.keys,
            (std::vector<uint64_t>{ObjectAttrKey(0, 0), ObjectAttrKey(0, 1),
                                   ObjectAttrKey(0, 2), ObjectAttrKey(1, 0)}));
  EXPECT_EQ(merged.value_ids, (std::vector<ValueId>{1, 4, 5, 3}));
  EXPECT_EQ(merged.confidences, (std::vector<double>{0.5, 0.25, 0.25, 0.5}));
  EXPECT_EQ(MergePredictions(parts).value_ids,
            (std::vector<ValueId>{1, 4, 2, 3}));
  EXPECT_TRUE(MergePredictions({}).empty());
}

// A run's predictions are written from value ids, streamed in key order:
// the bytes are those of the same values written as a GroundTruth, names
// and values that need quoting included.
TEST(PredictionsTest, CsvMatchesTheGroundTruthOfTheSameValues) {
  DatasetBuilder builder;
  const std::vector<Value> values = {Value("x,\"y\"\nz"), Value(2.5),
                                     Value(int64_t{-7}), Value("")};
  for (int s = 0; s < 3; ++s) {
    for (int o = 0; o < 3; ++o) {
      for (int a = 0; a < 2; ++a) {
        ASSERT_TRUE(builder
                        .AddClaim("s" + std::to_string(s),
                                  "o,\"" + std::to_string(o) + "\"",
                                  "a\r" + std::to_string(a),
                                  values[static_cast<size_t>(s + o + a) % 4])
                        .ok());
      }
    }
  }
  const Dataset data = builder.Build().MoveValue();
  auto run = MajorityVote().Discover(data);
  ASSERT_TRUE(run.ok()) << run.status();
  GroundTruth same_values;
  for (size_t i = 0; i < run->predicted.size(); ++i) {
    const uint64_t key = run->predicted.keys[i];
    same_values.Set(ObjectFromKey(key), AttributeFromKey(key),
                    run->predicted.ValueAt(i, data));
  }
  EXPECT_EQ(GroundTruthToCsv(run->predicted, data),
            GroundTruthToCsv(same_values, data));
}

TEST(GroundTruthTest, SortedKeysAscending) {
  GroundTruth t;
  t.Set(1, 0, Value("x"));
  t.Set(0, 2, Value("y"));
  t.Set(0, 1, Value("z"));
  auto keys = t.SortedKeys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_LT(keys[0], keys[1]);
  EXPECT_LT(keys[1], keys[2]);
}

// Ingestion error format is part of the API surface: tooling and humans
// both grep for `<file kind> line N, field "F"`, so these pin it.

TEST(IngestionErrorsTest, ShortClaimRowNamesItsLine) {
  const std::string csv =
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,int,1\n"
      "s1,o1\n";
  auto r = DatasetFromCsv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "claim CSV line 3: expected 5 fields "
            "(source,object,attribute,kind,value), got 2");
}

TEST(IngestionErrorsTest, BadKindNamesLineAndField) {
  const std::string csv =
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,floatt,1.5\n";
  auto r = DatasetFromCsv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "claim CSV line 2, field \"kind\": unknown value kind 'floatt'");
}

TEST(IngestionErrorsTest, GarbledNumberNamesLineFieldAndText) {
  const std::string csv =
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,int,1\n"
      "s2,o1,a1,int,12x\n";
  auto r = DatasetFromCsv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "claim CSV line 3, field \"value\": not an integer: '12x'");
}

TEST(IngestionErrorsTest, NonFiniteDoubleIsRefused) {
  const std::string csv =
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,double,nan\n";
  auto r = DatasetFromCsv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "claim CSV line 2, field \"value\": non-finite number: 'nan'");
}

TEST(IngestionErrorsTest, TruthFileErrorsCarryLinesToo) {
  DatasetBuilder b;
  ASSERT_TRUE(b.AddClaim("s", "obj", "attr", Value(int64_t{1})).ok());
  auto data = b.Build();
  ASSERT_TRUE(data.ok());
  const std::string csv =
      "object,attribute,kind,value\n"
      "obj,attr,int,1\n"
      "ghost,attr,int,2\n";
  auto r = GroundTruthFromCsv(csv, *data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(),
            "truth CSV line 3, field \"object\": unknown object 'ghost'");
}

TEST(IngestionErrorsTest, TrustFileErrorsCarryLinesToo) {
  DatasetBuilder b;
  ASSERT_TRUE(b.AddClaim("s", "obj", "attr", Value(int64_t{1})).ok());
  auto data = b.Build();
  ASSERT_TRUE(data.ok());
  const std::string csv = "source,trust\ns,0.5\ns,oops\n";
  auto r = SourceTrustFromCsv(csv, *data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "trust CSV line 3, field \"trust\": not a number: 'oops'");
}

// A repeated key is refused at the line that repeats it; the truth and
// trust loaders used to keep the later row silently.

TEST(IngestionErrorsTest, DuplicateClaimNamesItsLine) {
  const std::string csv =
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,string,x\n"
      "s2,o1,a1,string,y\n"
      "s1,o1,a1,string,x\n";
  auto r = DatasetFromCsv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(r.status().message(),
            "claim CSV line 4: duplicate claim for (source=s1, object=o1, "
            "attribute=a1)");
}

TEST(IngestionErrorsTest, EarlierOfTwoDuplicatesIsNamed) {
  // o2 is met first, so its item comes first in key order, but o1's repeat
  // is on the earlier line.
  const std::string csv =
      "source,object,attribute,kind,value\n"
      "s1,o2,a1,string,x\n"
      "s1,o1,a1,string,y\n"
      "s1,o1,a1,string,y\n"
      "s1,o2,a1,string,x\n";
  auto r = DatasetFromCsv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(r.status().message(),
            "claim CSV line 4: duplicate claim for (source=s1, object=o1, "
            "attribute=a1)");
}

TEST(IngestionErrorsTest, MalformedRowOutranksEarlierDuplicate) {
  // Rows are checked as they are read and repeats only once all are in,
  // so a malformed row is reported even when a repeat comes before it.
  const std::string csv =
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,string,x\n"
      "s1,o1,a1,string,x\n"
      "s2,o1,a1,strung,y\n";
  auto r = DatasetFromCsv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status().message(),
            "claim CSV line 4, field \"kind\": unknown value kind 'strung'");
}

// A load cut into chunks reports the error a one-chunk load reports. The
// claim rows below are unique, one per line after the header, so line
// i + 2 holds row i; the seam forces the chunk count.

/// `rows` unique claim rows under the header, with `replace` swapping in
/// the given text for the row on each given line.
std::string ClaimLines(size_t rows,
                       const std::vector<std::pair<size_t, std::string>>&
                           replace) {
  std::vector<std::string> lines = {"source,object,attribute,kind,value"};
  for (size_t i = 0; i < rows; ++i) {
    lines.push_back("s" + std::to_string(i % 10) + ",o" +
                    std::to_string(i / 10) + ",a1,int," + std::to_string(i));
  }
  for (const auto& [line, text] : replace) lines[line - 1] = text;
  std::string csv;
  for (const std::string& line : lines) csv += line + "\n";
  return csv;
}

/// The line on which the second of CsvRecordCuts' two pieces of `csv`
/// starts.
size_t SecondPieceLine(const std::string& csv) {
  const std::vector<size_t> bounds = CsvRecordCuts(csv, ',', 2);
  EXPECT_EQ(bounds.size(), 3u);
  return static_cast<size_t>(
             std::count(csv.begin(),
                        csv.begin() + static_cast<std::ptrdiff_t>(bounds[1]),
                        '\n')) +
         1;
}

TEST(IngestionErrorsTest, BadRowInALaterChunkOutranksAnEarlierRepeat) {
  const std::string csv = ClaimLines(
      200, {{3, "s0,o0,a1,int,0"}, {190, "s9,o18,a1,strung,9"}});
  ASSERT_GT(SecondPieceLine(csv), 3u);
  ASSERT_LT(SecondPieceLine(csv), 190u);
  for (size_t chunks : {1, 2, 3, 8}) {
    auto r = dataset_io_internal::DatasetFromCsvInChunks(csv, chunks, 4);
    ASSERT_FALSE(r.ok()) << chunks;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << chunks;
    EXPECT_EQ(r.status().message(),
              "claim CSV line 190, field \"kind\": unknown value kind "
              "'strung'")
        << chunks;
  }
}

TEST(IngestionErrorsTest, EarlierOfTwoBadRowsInDifferentChunksIsNamed) {
  const std::string csv =
      ClaimLines(200, {{20, "s8,o1"}, {180, "s8,o17,a1,int,12x"}});
  ASSERT_GT(SecondPieceLine(csv), 20u);
  ASSERT_LT(SecondPieceLine(csv), 180u);
  for (size_t chunks : {1, 2, 5, 8}) {
    auto r = dataset_io_internal::DatasetFromCsvInChunks(csv, chunks, 4);
    ASSERT_FALSE(r.ok()) << chunks;
    EXPECT_EQ(r.status().message(),
              "claim CSV line 20: expected 5 fields "
              "(source,object,attribute,kind,value), got 2")
        << chunks;
  }
  // With the first bad row gone, the later chunk's row is named, at its
  // own line.
  const std::string later = ClaimLines(200, {{180, "s8,o17,a1,int,12x"}});
  for (size_t chunks : {1, 2, 5, 8}) {
    auto r = dataset_io_internal::DatasetFromCsvInChunks(later, chunks, 4);
    ASSERT_FALSE(r.ok()) << chunks;
    EXPECT_EQ(r.status().message(),
              "claim CSV line 180, field \"value\": not an integer: '12x'")
        << chunks;
  }
}

// A built store keeps no slack in its claim columns, whether its load was
// one chunk or four merged chunks: the columns grow by doubling while
// claims are appended, and a frozen store never grows again.
TEST(DatasetIoTest, BuiltClaimColumnsKeepNoSlack) {
  const std::string csv = ClaimLines(5000, {});
  for (size_t chunks : {1, 4}) {
    auto r = dataset_io_internal::DatasetFromCsvInChunks(csv, chunks, 4);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->num_claims(), 5000u);
    EXPECT_EQ(r->claim_sources().capacity(), 5000u) << chunks;
    EXPECT_EQ(r->claim_objects().capacity(), 5000u) << chunks;
    EXPECT_EQ(r->claim_attributes().capacity(), 5000u) << chunks;
    EXPECT_EQ(r->claim_value_ids().capacity(), 5000u) << chunks;
  }
}

TEST(IngestionErrorsTest, DuplicateTruthRowIsRefused) {
  Dataset d = SmallDataset();
  const std::string csv =
      "object,attribute,kind,value\n"
      "o1,a1,string,red\n"
      "o1,a1,string,blue\n";
  auto r = GroundTruthFromCsv(csv, d);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(r.status().message(),
            "truth CSV line 3: duplicate truth for (object=o1, "
            "attribute=a1)");
}

TEST(IngestionErrorsTest, DuplicateTrustRowIsRefused) {
  Dataset d = SmallDataset();
  auto r = SourceTrustFromCsv("source,trust\ns1,0.5\ns2,0.5\ns1,0.25\n", d);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(r.status().message(),
            "trust CSV line 4, field \"source\": duplicate trust for source "
            "'s1'");
}

// The first row must be the file's header. Before the loaders checked it,
// a headerless file lost its first record without a word.

TEST(IngestionErrorsTest, HeaderlessClaimFileIsRefused) {
  auto r = DatasetFromCsv(
      "s1,o1,a1,int,5\n"
      "s2,o1,a1,int,5\n"
      "s3,o1,a1,int,6\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status().message(),
            "claim CSV line 1: expected header "
            "source,object,attribute,kind,value");
}

TEST(IngestionErrorsTest, HeaderlessTruthFileIsRefused) {
  Dataset d = SmallDataset();
  auto r = GroundTruthFromCsv("o1,a1,string,red\no1,a2,int,7\n", d);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status().message(),
            "truth CSV line 1: expected header object,attribute,kind,value");
}

TEST(IngestionErrorsTest, HeaderlessTrustFileIsRefused) {
  Dataset d = SmallDataset();
  auto r = SourceTrustFromCsv("s1,0.5\ns2,0.25\n", d);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status().message(),
            "trust CSV line 1: expected header source,trust");
}

TEST(IngestionErrorsTest, HeaderWithAnExtraColumnIsRefused) {
  auto r = DatasetFromCsv("source,object,attribute,kind,value,note\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "claim CSV line 1: expected header "
            "source,object,attribute,kind,value");
}

TEST(DatasetIoTest, ByteOrderMarkIsSkipped) {
  const Dataset d = SmallDataset();
  const std::string csv = DatasetToCsv(d);
  auto plain = DatasetFromCsv(csv);
  auto with_bom = DatasetFromCsv("\xEF\xBB\xBF" + csv);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(with_bom.ok()) << with_bom.status();
  EXPECT_EQ(DatasetFingerprint(*with_bom), DatasetFingerprint(*plain));
  EXPECT_EQ(with_bom->num_claims(), d.num_claims());

  GroundTruth truth;
  truth.Set(0, 0, Value("red"));
  auto loaded_truth =
      GroundTruthFromCsv("\xEF\xBB\xBF" + GroundTruthToCsv(truth, d), d);
  ASSERT_TRUE(loaded_truth.ok()) << loaded_truth.status();
  EXPECT_EQ(*loaded_truth, truth);
  auto trust = SourceTrustFromCsv("\xEF\xBB\xBFsource,trust\ns2,0.5\n", d);
  ASSERT_TRUE(trust.ok()) << trust.status();
  EXPECT_DOUBLE_EQ((*trust)[1], 0.5);
}

TEST(DatasetIoTest, DirectoryPathIsAnIoError) {
  // A directory used to read as an empty file ("empty claim CSV").
  testutil::ScratchDir scratch;
  auto r = LoadDataset(scratch.path());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find(scratch.path()), std::string::npos)
      << r.status().message();
}

// The store keeps one spelling per distinct value, the first it saw, and
// -0.0 == +0.0: a claim read as -0 after a claim read as 0 comes back, and
// is saved, as 0 (and the other way round).
TEST(DatasetIoTest, SignedZeroTakesTheFirstSpelling) {
  auto zero_first = DatasetFromCsv(
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,double,0\n"
      "s2,o1,a1,double,-0\n");
  ASSERT_TRUE(zero_first.ok());
  EXPECT_FALSE(std::signbit(zero_first->claim(1).value.AsDouble()));
  EXPECT_EQ(DatasetToCsv(*zero_first),
            "source,object,attribute,kind,value\n"
            "s1,o1,a1,double,0\n"
            "s2,o1,a1,double,0\n");

  auto negative_first = DatasetFromCsv(
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,double,-0\n"
      "s2,o1,a1,double,0\n");
  ASSERT_TRUE(negative_first.ok());
  EXPECT_TRUE(std::signbit(negative_first->claim(1).value.AsDouble()));
  EXPECT_EQ(DatasetToCsv(*negative_first),
            "source,object,attribute,kind,value\n"
            "s1,o1,a1,double,-0\n"
            "s2,o1,a1,double,-0\n");
}

// Characterization golden for everything that reads claims back out of a
// built store: fingerprint, CSV save, profile, coverage, active axes,
// evaluation, empirical source accuracy, and both restriction copies. It
// pins the observable behaviour of the claim readers whatever layout the
// store uses underneath.

std::string Hex64(uint64_t value) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(value));
  return hex;
}

std::string Digest(const Dataset& data) {
  const std::string csv = DatasetToCsv(data);
  return "fingerprint " + Hex64(DatasetFingerprint(data)) + " csv " +
         std::to_string(csv.size()) + " bytes fnv1a64 " +
         testutil::Fnv1a64Hex(csv);
}

std::string Characterize(const std::string& name, const Dataset& data,
                         const GroundTruth& gold) {
  std::ostringstream out;
  out << "[" << name << "]\n" << Digest(data) << "\n";

  const DatasetProfile p = ProfileDataset(data);
  out << "profile sources " << p.num_sources << " objects " << p.num_objects
      << " attributes " << p.num_attributes << " claims " << p.num_claims
      << " dcr " << HexDouble(p.dcr) << " items " << p.num_items
      << "\nprofile claims_per_item " << HexDouble(p.mean_claims_per_item)
      << " max " << p.max_claims_per_item << " distinct_per_item "
      << HexDouble(p.mean_distinct_values_per_item) << " max "
      << p.max_distinct_values_per_item << "\nprofile conflict "
      << HexDouble(p.conflict_rate) << " decisive "
      << HexDouble(p.majority_decisive_rate) << " per_source "
      << HexDouble(p.mean_claims_per_source) << " min "
      << p.min_claims_per_source << " max " << p.max_claims_per_source
      << "\nprofile histogram";
  for (size_t bucket : p.distinct_value_histogram) out << ' ' << bucket;

  out << "\ndcr " << HexDouble(data.DataCoverageRate()) << " active "
      << data.ActiveAttributes().size() << " attributes "
      << data.ActiveObjects().size() << " objects\n";

  MajorityVote mv;
  auto predicted = mv.Discover(data);
  EXPECT_TRUE(predicted.ok()) << predicted.status();
  const PerformanceMetrics m = Evaluate(data, predicted->predicted, gold);
  out << "evaluate tp " << m.counts.tp << " fp " << m.counts.fp << " tn "
      << m.counts.tn << " fn " << m.counts.fn << " skipped "
      << m.counts.skipped_claims << " items " << m.items_evaluated
      << " item_accuracy " << HexDouble(m.item_accuracy) << "\n";

  // Every accuracy's bits, folded into one digest (exam has 248 sources).
  const std::vector<double> accuracy = EmpiricalSourceAccuracy(data, gold);
  std::string accuracy_bits;
  for (double a : accuracy) accuracy_bits += HexDouble(a) + ' ';
  out << "source_accuracy " << accuracy.size() << " sources fnv1a64 "
      << testutil::Fnv1a64Hex(accuracy_bits);

  std::vector<AttributeId> even;
  for (AttributeId a = 0; a < data.num_attributes(); a += 2) {
    even.push_back(a);
  }
  out << "\nrestrict_even_attributes "
      << Digest(data.RestrictToAttributes(even))
      << "\nmaterialize_even_attributes "
      << Digest(DatasetView(data, even).Materialize()) << "\n";
  return out.str();
}

// Strings that need CSV quoting (comma, quote, newline), non-ASCII text,
// ints, and a double, spread over three sources and three attributes.
GeneratedData MixedKindData() {
  DatasetBuilder b;
  GroundTruth truth;
  auto add = [&b](const char* s, const char* o, const char* a, Value v) {
    EXPECT_TRUE(b.AddClaim(s, o, a, std::move(v)).ok());
  };
  add("s1", "o1", "name", Value("Smith, John"));
  add("s2", "o1", "name", Value("Smith, John"));
  add("s3", "o1", "name", Value("J. \"Jack\" Smith"));
  add("s1", "o1", "count", Value(int64_t{7}));
  add("s2", "o1", "count", Value(int64_t{-3}));
  add("s3", "o1", "count", Value(int64_t{7}));
  add("s1", "o1", "score", Value(2.5));
  add("s2", "o1", "score", Value(int64_t{2}));
  add("s1", "o2", "name", Value("line one\nline two"));
  add("s2", "o2", "name", Value("Zo\xc3\xab \xe6\x9d\xb1\xe4\xba\xac"));
  add("s3", "o2", "name", Value("Zo\xc3\xab \xe6\x9d\xb1\xe4\xba\xac"));
  add("s3", "o2", "score", Value(2.5));
  add("s2", "o2", "count", Value(int64_t{0}));
  GeneratedData out;
  out.dataset = b.Build().MoveValue();
  truth.Set(0, 0, Value("Smith, John"));
  truth.Set(0, 1, Value(int64_t{7}));
  truth.Set(0, 2, Value(2.5));
  truth.Set(1, 0, Value("line one\nline two"));
  truth.Set(1, 2, Value(2.5));
  out.truth = std::move(truth);
  return out;
}

TEST(DataCharacterizationTest, Golden) {
  std::string actual;

  auto ds1_config = PaperSyntheticConfig(1, 42);
  ASSERT_TRUE(ds1_config.ok()) << ds1_config.status();
  ds1_config->num_objects = 100;
  auto ds1 = GenerateSynthetic(*ds1_config);
  ASSERT_TRUE(ds1.ok()) << ds1.status();
  actual += Characterize("ds1_objects100_seed42", ds1->dataset, ds1->truth);

  ExamConfig exam_config;
  exam_config.num_questions = 32;
  exam_config.seed = 7;
  auto exam = GenerateExam(exam_config);
  ASSERT_TRUE(exam.ok()) << exam.status();
  actual += Characterize("exam32_seed7", exam->dataset, exam->truth);

  auto stocks = GenerateStocks(42);
  ASSERT_TRUE(stocks.ok()) << stocks.status();
  actual += Characterize("stocks_seed42", stocks->dataset, stocks->truth);

  auto flights = GenerateFlights(42);
  ASSERT_TRUE(flights.ok()) << flights.status();
  actual += Characterize("flights_seed42", flights->dataset, flights->truth);

  bool near_duplicate_seen = false;
  for (const ScenarioSpec& spec : DefaultScenarioMatrix(40, 99)) {
    if (spec.adversary != AdversaryMode::kNearDuplicate) continue;
    auto cell = GenerateScenario(spec);
    ASSERT_TRUE(cell.ok()) << cell.status();
    actual += Characterize(spec.name, cell->dataset, cell->truth);
    near_duplicate_seen = true;
    break;
  }
  ASSERT_TRUE(near_duplicate_seen);

  const GeneratedData mixed = MixedKindData();
  actual += Characterize("mixed_kinds", mixed.dataset, mixed.truth);

  testutil::ExpectMatchesGolden(
      std::string(TDAC_GOLDEN_DIR) + "/data_characterization.txt", actual);
}

}  // namespace
}  // namespace tdac
