// Property-based tests: invariants checked over randomized inputs and
// parameter sweeps (TEST_P) rather than hand-picked examples.

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "clustering/hierarchical.h"
#include "clustering/kmeans.h"
#include "clustering/silhouette.h"
#include "common/csv.h"
#include "common/random.h"
#include "data/dataset_builder.h"
#include "data/dataset_io.h"
#include "eval/metrics.h"
#include "gen/synthetic.h"
#include "partition/attribute_partition.h"
#include "td/registry.h"
#include "tdac/tdac.h"
#include "td/accu.h"

namespace tdac {
namespace {

/// Random dataset generator driven by a seed: random counts, random claims,
/// guaranteed at least one claim.
Dataset RandomDataset(uint64_t seed) {
  Rng rng(seed);
  int num_sources = static_cast<int>(2 + rng.NextBounded(6));
  int num_objects = static_cast<int>(1 + rng.NextBounded(4));
  int num_attrs = static_cast<int>(1 + rng.NextBounded(6));
  DatasetBuilder b;
  for (int s = 0; s < num_sources; ++s) b.AddSource("s" + std::to_string(s));
  for (int o = 0; o < num_objects; ++o) b.AddObject("o" + std::to_string(o));
  for (int a = 0; a < num_attrs; ++a) b.AddAttribute("a" + std::to_string(a));
  size_t added = 0;
  for (int s = 0; s < num_sources; ++s) {
    for (int o = 0; o < num_objects; ++o) {
      for (int a = 0; a < num_attrs; ++a) {
        if (rng.NextBernoulli(0.6)) {
          Status st =
              b.AddClaim(s, o, a, Value(rng.NextInt(0, 9)));
          EXPECT_TRUE(st.ok());
          ++added;
        }
      }
    }
  }
  if (added == 0) {
    EXPECT_TRUE(b.AddClaim(0, 0, 0, Value(int64_t{1})).ok());
  }
  return b.Build().MoveValue();
}

class AlgorithmPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(AlgorithmPropertyTest, PredictsExactlyTheClaimedItems) {
  const auto& [name, seed] = GetParam();
  Dataset d = RandomDataset(seed);
  auto algo = MakeAlgorithm(name);
  ASSERT_TRUE(algo.ok());
  auto r = (*algo)->Discover(d);
  ASSERT_TRUE(r.ok()) << name;
  EXPECT_EQ(r->predicted.size(), d.DataItems().size());
  for (uint64_t key : d.DataItems()) {
    ObjectId o = ObjectFromKey(key);
    AttributeId a = AttributeFromKey(key);
    const Value* p = r->predicted.Get(o, a);
    ASSERT_NE(p, nullptr);
    // The elected value must be one of the claimed values.
    bool found = false;
    for (int32_t idx : d.ClaimsOn(o, a)) {
      if (d.claim(static_cast<size_t>(idx)).value == *p) found = true;
    }
    EXPECT_TRUE(found) << name << " elected an unclaimed value";
  }
}

TEST_P(AlgorithmPropertyTest, TrustVectorWellFormed) {
  const auto& [name, seed] = GetParam();
  Dataset d = RandomDataset(seed ^ 0x5555);
  auto algo = MakeAlgorithm(name);
  ASSERT_TRUE(algo.ok());
  auto r = (*algo)->Discover(d);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->source_trust.size(), static_cast<size_t>(d.num_sources()));
  for (double t : r->source_trust) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
  EXPECT_GE(r->iterations, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsTimesSeeds, AlgorithmPropertyTest,
    ::testing::Combine(::testing::Values("MajorityVote", "TruthFinder",
                                         "DEPEN", "Accu", "AccuSim", "Sums",
                                         "AverageLog", "Investment",
                                         "PooledInvestment", "TwoEstimates",
                                         "ThreeEstimates", "CRH"),
                       ::testing::Values(1ull, 2ull, 3ull, 4ull)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

class KMeansPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KMeansPropertyTest, AssignmentsValidAndInertiaMonotoneInK) {
  Rng rng(GetParam());
  std::vector<FeatureVector> points;
  int n = static_cast<int>(5 + rng.NextBounded(20));
  int dim = static_cast<int>(2 + rng.NextBounded(5));
  for (int i = 0; i < n; ++i) {
    FeatureVector p(static_cast<size_t>(dim));
    for (int j = 0; j < dim; ++j) {
      p[static_cast<size_t>(j)] = rng.NextDouble(0, 10);
    }
    points.push_back(std::move(p));
  }
  double prev = -1.0;
  for (int k = 1; k <= std::min(n, 5); ++k) {
    KMeansOptions opts;
    opts.k = k;
    opts.seed = GetParam();
    opts.num_restarts = 4;
    auto r = KMeans(points, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->assignment.size(), points.size());
    for (int a : r->assignment) {
      EXPECT_GE(a, 0);
      EXPECT_LT(a, k);
    }
    EXPECT_GE(r->inertia, 0.0);
    if (prev >= 0.0) {
      // More clusters can only help the objective (with enough restarts
      // this holds in practice; allow small slack for local optima).
      EXPECT_LE(r->inertia, prev * 1.05 + 1e-9);
    }
    prev = r->inertia;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMeansPropertyTest,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull,
                                           55ull));

class SilhouettePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SilhouettePropertyTest, ScoresAlwaysInMinusOneToOne) {
  Rng rng(GetParam());
  int n = static_cast<int>(4 + rng.NextBounded(12));
  int k = static_cast<int>(2 + rng.NextBounded(3));
  if (k > n) k = n;
  std::vector<FeatureVector> points;
  std::vector<int> assignment;
  for (int i = 0; i < n; ++i) {
    points.push_back({rng.NextDouble(0, 5), rng.NextDouble(0, 5)});
    assignment.push_back(i < k ? i : static_cast<int>(rng.NextBounded(
                                         static_cast<uint64_t>(k))));
  }
  auto r = Silhouette(points, assignment, k, DistanceMetric::kEuclidean);
  ASSERT_TRUE(r.ok());
  for (double s : r->point_scores) {
    EXPECT_GE(s, -1.0 - 1e-12);
    EXPECT_LE(s, 1.0 + 1e-12);
  }
  EXPECT_GE(r->partition_score, -1.0 - 1e-12);
  EXPECT_LE(r->partition_score, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SilhouettePropertyTest,
                         ::testing::Values(7ull, 8ull, 9ull, 10ull));

class MetricsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsPropertyTest, MetricsBoundedAndConsistent) {
  Dataset d = RandomDataset(GetParam() + 1000);
  // Random gold and predicted truths drawn from the claimed values.
  Rng rng(GetParam());
  GroundTruth gold;
  GroundTruth predicted;
  for (uint64_t key : d.DataItems()) {
    ObjectId o = ObjectFromKey(key);
    AttributeId a = AttributeFromKey(key);
    const auto& claims = d.ClaimsOn(o, a);
    const Claim& cg = d.claim(
        static_cast<size_t>(claims[rng.NextBounded(claims.size())]));
    const Claim& cp = d.claim(
        static_cast<size_t>(claims[rng.NextBounded(claims.size())]));
    gold.Set(o, a, cg.value);
    predicted.Set(o, a, cp.value);
  }
  PerformanceMetrics m = Evaluate(d, predicted, gold);
  for (double v : {m.precision, m.recall, m.accuracy, m.f1, m.item_accuracy}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_EQ(m.counts.total() + m.counts.skipped_claims, d.num_claims());
  // F1 lies between min and max of precision/recall (harmonic mean).
  if (m.precision > 0 && m.recall > 0) {
    EXPECT_LE(m.f1, std::max(m.precision, m.recall) + 1e-12);
    EXPECT_GE(m.f1, std::min(m.precision, m.recall) - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsPropertyTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull));

class TdacPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TdacPropertyTest, PartitionCoversAllActiveAttributesExactlyOnce) {
  SyntheticConfig config;
  config.num_objects = 30;
  config.num_sources = 6;
  config.planted_groups = {{0, 1}, {2, 3}, {4}};
  config.reliability_levels = {0.9, 0.3};
  config.seed = GetParam();
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  Accu base;
  TdacOptions opts;
  opts.base = &base;
  Tdac tdac(opts);
  auto report = tdac.DiscoverWithReport(data->dataset);
  ASSERT_TRUE(report.ok());
  std::vector<AttributeId> covered = report->partition.Attributes();
  EXPECT_EQ(covered, data->dataset.ActiveAttributes());
  std::set<AttributeId> unique(covered.begin(), covered.end());
  EXPECT_EQ(unique.size(), covered.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TdacPropertyTest,
                         ::testing::Values(101ull, 102ull, 103ull));

class MixedKindValuesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MixedKindValuesTest, AlgorithmsHandleHeterogeneousValueKinds) {
  // Conflict sets mixing strings, ints, and doubles (real feeds disagree
  // even on types). Every algorithm must elect one of the claimed values
  // and not confuse equal-looking values of different kinds.
  DatasetBuilder b;
  for (int i = 0; i < 6; ++i) {
    std::string attr = "a" + std::to_string(i);
    ASSERT_TRUE(b.AddClaim("s1", "o", attr, Value("2")).ok());
    ASSERT_TRUE(b.AddClaim("s2", "o", attr, Value("2")).ok());
    ASSERT_TRUE(b.AddClaim("s3", "o", attr, Value(int64_t{2})).ok());
    ASSERT_TRUE(b.AddClaim("s4", "o", attr, Value(2.0)).ok());
  }
  Dataset d = b.Build().MoveValue();
  auto algo = MakeAlgorithm(GetParam());
  ASSERT_TRUE(algo.ok());
  auto r = (*algo)->Discover(d);
  ASSERT_TRUE(r.ok()) << GetParam();
  for (int i = 0; i < 6; ++i) {
    const Value* p = r->predicted.Get(0, i);
    ASSERT_NE(p, nullptr);
    // The string "2" has two supporters; the int and double singletons
    // must not pool with it under exact-equality voting.
    EXPECT_EQ(*p, Value("2")) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, MixedKindValuesTest,
    ::testing::Values("MajorityVote", "DEPEN", "Accu", "Sums", "AverageLog",
                      "Investment", "PooledInvestment", "TwoEstimates",
                      "ThreeEstimates", "CRH"),
    [](const auto& info) { return info.param; });

class TdacWithEveryBaseTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(TdacWithEveryBaseTest, WrapsAnyRegisteredAlgorithm) {
  // TD-AC's contract: any TruthDiscovery can serve as F. Run each
  // registered algorithm inside TD-AC on small correlated data and check
  // the merged result is complete and well-formed.
  SyntheticConfig config;
  config.num_objects = 25;
  config.num_sources = 6;
  config.planted_groups = {{0, 1}, {2, 3}};
  config.reliability_levels = {0.9, 0.2};
  config.seed = 5;
  auto data = GenerateSynthetic(config).MoveValue();

  auto base = MakeAlgorithm(GetParam());
  ASSERT_TRUE(base.ok());
  TdacOptions opts;
  opts.base = base->get();
  Tdac tdac_algo(opts);
  auto r = tdac_algo.Discover(data.dataset);
  ASSERT_TRUE(r.ok()) << GetParam();
  EXPECT_EQ(r->predicted.size(), data.dataset.DataItems().size());
  EXPECT_EQ(r->iterations, 1);
  for (double t : r->source_trust) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBases, TdacWithEveryBaseTest,
    ::testing::Values("MajorityVote", "TruthFinder", "DEPEN", "Accu",
                      "AccuSim", "Sums", "AverageLog", "Investment",
                      "PooledInvestment", "TwoEstimates", "ThreeEstimates",
                      "CRH"),
    [](const auto& info) { return info.param; });

class CsvFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzzTest, WriterOutputAlwaysParsesBack) {
  Rng rng(GetParam());
  // Random rows of random fields over a nasty alphabet.
  const char alphabet[] = {'a', 'b', ',', '"', '\n', '\r', ' ', '\t', 'z'};
  CsvWriter writer;
  std::vector<std::vector<std::string>> rows;
  int num_rows = static_cast<int>(1 + rng.NextBounded(8));
  int num_cols = static_cast<int>(1 + rng.NextBounded(5));
  for (int r = 0; r < num_rows; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < num_cols; ++c) {
      std::string field;
      size_t len = rng.NextBounded(12);
      for (size_t i = 0; i < len; ++i) {
        field += alphabet[rng.NextBounded(sizeof(alphabet))];
      }
      row.push_back(std::move(field));
    }
    writer.WriteRow(row);
    rows.push_back(std::move(row));
  }
  auto parsed = ParseCsv(writer.contents());
  ASSERT_TRUE(parsed.ok());
  // Caveat: a row whose final field ends with a bare '\r' is reproduced
  // without it ('\r' before EOL is consumed as line-ending tolerance);
  // normalize both sides for comparison.
  auto normalize = [](std::vector<std::vector<std::string>> m) {
    for (auto& row : m) {
      if (!row.empty()) {
        std::string& last = row.back();
        while (!last.empty() && last.back() == '\r') last.pop_back();
      }
    }
    return m;
  };
  EXPECT_EQ(normalize(*parsed), normalize(rows));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

// The streaming claim loader against the writer: seeded random claim sets
// whose names and string values hold every byte CSV framing cares about
// must load back into the same store, whatever the line endings.

/// A random string over bytes that need quoting (comma, quote, CR, LF),
/// an embedded NUL and non-ASCII UTF-8; empty strings included.
std::string NastyString(Rng* rng, bool line_breaks) {
  static const std::vector<std::string> kPieces = {
      ",", "\"", std::string(1, '\0'), "\xc3\xa9", "\xe6\x9d\xb1", " ",
      "a", "Z", "0", "\r", "\n", "\r\n"};
  const size_t usable = line_breaks ? kPieces.size() : kPieces.size() - 3;
  std::string out;
  const size_t len = static_cast<size_t>(rng->NextBounded(6));
  for (size_t i = 0; i < len; ++i) out += kPieces[rng->NextBounded(usable)];
  return out;
}

Dataset RandomClaimSet(uint64_t seed, bool line_breaks) {
  Rng rng(seed);
  const int sources = static_cast<int>(1 + rng.NextBounded(5));
  const int objects = static_cast<int>(1 + rng.NextBounded(6));
  const int attributes = static_cast<int>(1 + rng.NextBounded(4));
  auto name = [&](const char* prefix, int i) {
    return prefix + std::to_string(i) + NastyString(&rng, line_breaks);
  };
  std::vector<std::string> source_names, object_names, attribute_names;
  for (int i = 0; i < sources; ++i) source_names.push_back(name("s", i));
  for (int i = 0; i < objects; ++i) object_names.push_back(name("o", i));
  for (int i = 0; i < attributes; ++i) {
    attribute_names.push_back(name("a", i));
  }
  DatasetBuilder builder;
  for (int o = 0; o < objects; ++o) {
    for (int a = 0; a < attributes; ++a) {
      for (int s = 0; s < sources; ++s) {
        if (builder.num_claims() > 0 && !rng.NextBernoulli(0.6)) continue;
        Value value;
        switch (rng.NextBounded(4)) {
          case 0:
            value = Value(rng.NextInt(-1000000, 1000000));
            break;
          case 1:
            value = Value(rng.NextBernoulli(0.1) ? -0.0
                                                 : rng.NextGaussian(0, 1e6));
            break;
          default:
            value = Value(NastyString(&rng, line_breaks));
        }
        EXPECT_TRUE(builder
                        .AddClaim(source_names[static_cast<size_t>(s)],
                                  object_names[static_cast<size_t>(o)],
                                  attribute_names[static_cast<size_t>(a)],
                                  std::move(value))
                        .ok());
      }
    }
  }
  return builder.Build().MoveValue();
}

/// Loads `text` and checks it yields `expected`'s fingerprint, name
/// tables and claims.
void ExpectLoadsAs(const std::string& text, const Dataset& expected,
                   const std::string& context) {
  auto loaded = DatasetFromCsv(text);
  ASSERT_TRUE(loaded.ok()) << context << ": " << loaded.status();
  EXPECT_EQ(DatasetFingerprint(*loaded), DatasetFingerprint(expected))
      << context;
  ASSERT_EQ(loaded->num_claims(), expected.num_claims()) << context;
  ASSERT_EQ(loaded->num_sources(), expected.num_sources()) << context;
  ASSERT_EQ(loaded->num_objects(), expected.num_objects()) << context;
  ASSERT_EQ(loaded->num_attributes(), expected.num_attributes()) << context;
  for (SourceId s = 0; s < expected.num_sources(); ++s) {
    EXPECT_EQ(loaded->source_name(s), expected.source_name(s)) << context;
  }
  for (ObjectId o = 0; o < expected.num_objects(); ++o) {
    EXPECT_EQ(loaded->object_name(o), expected.object_name(o)) << context;
  }
  for (AttributeId a = 0; a < expected.num_attributes(); ++a) {
    EXPECT_EQ(loaded->attribute_name(a), expected.attribute_name(a))
        << context;
  }
  for (size_t i = 0; i < expected.num_claims(); ++i) {
    EXPECT_EQ(loaded->claim(i), expected.claim(i)) << context << " claim " << i;
  }
}

class CsvLoaderRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvLoaderRoundTripTest, SaveThenLoadIsIdentity) {
  const Dataset data = RandomClaimSet(GetParam(), /*line_breaks=*/true);
  ExpectLoadsAs(DatasetToCsv(data), data, "as written");
}

TEST_P(CsvLoaderRoundTripTest, CrlfAndBomRoundTripWithoutLineBreaks) {
  const Dataset data = RandomClaimSet(GetParam(), /*line_breaks=*/false);
  const std::string text = DatasetToCsv(data);
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  ExpectLoadsAs(text, data, "as written");
  ExpectLoadsAs(crlf, data, "CRLF");
  ExpectLoadsAs("\xEF\xBB\xBF" + text, data, "BOM");
  ExpectLoadsAs("\xEF\xBB\xBF" + crlf, data, "BOM + CRLF");
}

TEST_P(CsvLoaderRoundTripTest, BadRowAfterMultiLineFieldNamesItsLine) {
  Rng rng(GetParam());
  DatasetBuilder builder;
  ASSERT_TRUE(builder
                  .AddClaim("s1", "o1", "a1",
                            Value("first\nsecond\r\nthird" +
                                  NastyString(&rng, /*line_breaks=*/true)))
                  .ok());
  ASSERT_TRUE(builder.AddClaim("s2", "o1", "a1", Value("plain")).ok());
  std::string text = DatasetToCsv(builder.Build().MoveValue());
  // The bad row starts on the physical line after the last newline. It
  // has a bad value, too few fields, or repeats the multi-line claim.
  const size_t line =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  const char* const bad_rows[] = {"s3,o1,a1,int,12x\n", "s3,o1\n",
                                  "s1,o1,a1,int,5\n"};
  text += bad_rows[rng.NextBounded(3)];
  auto loaded = DatasetFromCsv(text);
  ASSERT_FALSE(loaded.ok());
  const std::string at = "claim CSV line " + std::to_string(line);
  const std::string& message = loaded.status().message();
  EXPECT_TRUE(message.starts_with(at + ",") || message.starts_with(at + ":"))
      << message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvLoaderRoundTripTest,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

// The claim loader cut into chunks (the DatasetFromCsvInChunks seam) on
// seeded random claim files that hold every framing case the scanner has:
// quoted multi-line fields, `""` escapes, a quote inside an unquoted field,
// CR and CRLF row ends, a byte-order mark, no final row end, and an
// unterminated quote at the end. A load in 2-8 chunks must build exactly
// the store the one-chunk load builds, or fail with the same first error.

/// `text` as one CSV field: bare when the scanner reads it back as is (a
/// quote after the field's start is content), else quoted with its quotes
/// doubled; quoted anyway now and then.
std::string RandomField(Rng* rng, const std::string& text) {
  const bool bare_ok = !text.starts_with('"') &&
                       text.find_first_of(",\r\n") == std::string::npos;
  if (bare_ok && rng->NextBernoulli(0.7)) return text;
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

/// A random claim file: unique claims on pools of nasty names, every row
/// end one of LF, CRLF and CR, plus at random a byte-order mark, a missing
/// final row end, and up to two faults (a repeated claim, a bad kind, a
/// short row, a bad number, an unterminated quote at the end).
std::string RandomClaimCsv(uint64_t seed) {
  Rng rng(seed);
  auto pool = [&rng](const char* prefix, uint64_t size) {
    std::vector<std::string> names;
    for (uint64_t i = 0; i < size; ++i) {
      names.push_back(prefix + std::to_string(i) +
                      NastyString(&rng, /*line_breaks=*/true));
    }
    return names;
  };
  const std::vector<std::string> sources = pool("s", 1 + rng.NextBounded(6));
  const std::vector<std::string> objects = pool("o", 5 + rng.NextBounded(30));
  const std::vector<std::string> attributes =
      pool("a", 1 + rng.NextBounded(4));
  std::vector<std::string> rows;
  for (const std::string& object : objects) {
    for (const std::string& attribute : attributes) {
      for (const std::string& source : sources) {
        if (!rng.NextBernoulli(0.7)) continue;
        std::string kind = "string";
        std::string value = NastyString(&rng, /*line_breaks=*/true);
        if (rng.NextBernoulli(0.2)) value = "\"" + value;
        if (rng.NextBernoulli(0.3)) {
          kind = "int";
          value = std::to_string(rng.NextInt(-99, 99));
        } else if (rng.NextBernoulli(0.3)) {
          kind = "double";
          value = rng.NextBernoulli(0.1) ? "-0" : std::to_string(
                                                      rng.NextInt(-9, 9)) +
                                                      ".5";
        }
        rows.push_back(RandomField(&rng, source) + "," +
                       RandomField(&rng, object) + "," +
                       RandomField(&rng, attribute) + "," + kind + "," +
                       RandomField(&rng, value));
      }
    }
  }
  for (uint64_t faults = rng.NextBounded(3); faults > 0 && !rows.empty();
       --faults) {
    const size_t at = static_cast<size_t>(rng.NextBounded(rows.size()));
    switch (rng.NextBounded(4)) {
      case 0:
        rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(at) + 1,
                    rows[static_cast<size_t>(rng.NextBounded(at + 1))]);
        break;
      case 1:
        rows[at] = "s,o,a,strung,1";
        break;
      case 2:
        rows[at] = "s,o";
        break;
      default:
        rows[at] = "s,o,a,int,12x";
    }
  }
  const char* const kRowEnds[] = {"\n", "\r\n", "\r"};
  std::string text =
      rng.NextBernoulli(0.3) ? std::string("\xEF\xBB\xBF") : std::string();
  text += "source,object,attribute,kind,value";
  for (const std::string& row : rows) {
    text += kRowEnds[rng.NextBounded(3)];
    text += row;
  }
  if (rng.NextBernoulli(0.2)) {
    text += "\ns,o,a,string,\"never closed\nacross lines";
  } else if (rng.NextBernoulli(0.7)) {
    text += kRowEnds[rng.NextBounded(3)];
  }
  return text;
}

/// Expects `cut` to be the same load as `one`: the same first error, or a
/// store with the same fingerprint, name tables, columns, ranks and item
/// index.
void ExpectSameLoad(const Result<Dataset>& one, const Result<Dataset>& cut,
                    const std::string& context) {
  ASSERT_EQ(cut.ok(), one.ok())
      << context << ": " << (one.ok() ? cut.status() : one.status());
  if (!one.ok()) {
    EXPECT_EQ(cut.status().code(), one.status().code()) << context;
    EXPECT_EQ(cut.status().message(), one.status().message()) << context;
    return;
  }
  const Dataset& a = *one;
  const Dataset& b = *cut;
  EXPECT_EQ(DatasetFingerprint(b), DatasetFingerprint(a)) << context;
  ASSERT_EQ(b.num_sources(), a.num_sources()) << context;
  ASSERT_EQ(b.num_objects(), a.num_objects()) << context;
  ASSERT_EQ(b.num_attributes(), a.num_attributes()) << context;
  for (SourceId i = 0; i < a.num_sources(); ++i) {
    EXPECT_EQ(b.source_name(i), a.source_name(i)) << context;
  }
  for (ObjectId i = 0; i < a.num_objects(); ++i) {
    EXPECT_EQ(b.object_name(i), a.object_name(i)) << context;
  }
  for (AttributeId i = 0; i < a.num_attributes(); ++i) {
    EXPECT_EQ(b.attribute_name(i), a.attribute_name(i)) << context;
  }
  EXPECT_EQ(b.claim_sources(), a.claim_sources()) << context;
  EXPECT_EQ(b.claim_objects(), a.claim_objects()) << context;
  EXPECT_EQ(b.claim_attributes(), a.claim_attributes()) << context;
  EXPECT_EQ(b.claim_value_ids(), a.claim_value_ids()) << context;
  EXPECT_EQ(b.claim_value_ranks(), a.claim_value_ranks()) << context;
  EXPECT_EQ(b.claim_items(), a.claim_items()) << context;
  EXPECT_EQ(b.DataItems(), a.DataItems()) << context;
  for (uint64_t key : a.DataItems()) {
    const auto claims_a = a.ClaimsOn(ObjectFromKey(key), AttributeFromKey(key));
    const auto claims_b = b.ClaimsOn(ObjectFromKey(key), AttributeFromKey(key));
    EXPECT_TRUE(std::ranges::equal(claims_b, claims_a)) << context;
  }
  const ValueDict& dict_a = a.value_dict();
  const ValueDict& dict_b = b.value_dict();
  ASSERT_EQ(dict_b.size(), dict_a.size()) << context;
  for (ValueId id = 0; id < dict_a.size(); ++id) {
    EXPECT_EQ(dict_b.ValueAt(id), dict_a.ValueAt(id)) << context;
    EXPECT_EQ(dict_b.rank(id), dict_a.rank(id)) << context;
  }
}

class ChunkedLoadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChunkedLoadTest, EveryChunkCountLoadsAsOneChunk) {
  const std::string text = RandomClaimCsv(GetParam());
  const Result<Dataset> one =
      dataset_io_internal::DatasetFromCsvInChunks(text, 1, 1);
  std::string_view body = text;
  if (body.starts_with("\xEF\xBB\xBF")) body.remove_prefix(3);
  for (size_t chunks = 2; chunks <= 8; ++chunks) {
    const std::string context = "seed " + std::to_string(GetParam()) +
                                ", " + std::to_string(chunks) + " chunks";
    // The text really is cut: into as many pieces as asked, or nearly.
    EXPECT_GE(CsvRecordCuts(body, ',', chunks).size(), chunks) << context;
    ExpectSameLoad(one,
                   dataset_io_internal::DatasetFromCsvInChunks(
                       text, chunks, static_cast<int>(chunks % 4 + 1)),
                   context);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkedLoadTest,
                         ::testing::Range(uint64_t{1}, uint64_t{81}));

class ValueOrderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueOrderPropertyTest, TotalOrderIsStrictWeakAndHashConsistent) {
  Rng rng(GetParam());
  std::vector<Value> values;
  for (int i = 0; i < 12; ++i) {
    switch (rng.NextBounded(3)) {
      case 0:
        values.push_back(Value(rng.NextInt(-5, 5)));
        break;
      case 1:
        values.push_back(Value(static_cast<double>(rng.NextInt(-3, 3)) / 2));
        break;
      default: {
        std::string s;
        for (size_t j = rng.NextBounded(4); j > 0; --j) {
          s += static_cast<char>('a' + rng.NextBounded(3));
        }
        values.push_back(Value(s));
      }
    }
  }
  for (const Value& a : values) {
    EXPECT_FALSE(a < a);  // irreflexive
    for (const Value& b : values) {
      // Antisymmetric; equality consistent with !(a<b) && !(b<a).
      EXPECT_FALSE(a < b && b < a);
      if (a == b) {
        EXPECT_FALSE(a < b);
        EXPECT_EQ(a.Hash(), b.Hash());
      }
      for (const Value& c : values) {
        if (a < b && b < c) {
          EXPECT_TRUE(a < c);  // transitive
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueOrderPropertyTest,
                         ::testing::Values(1ull, 2ull, 3ull));

class PartitionRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionRoundTripTest, PrintParseIsIdentity) {
  Rng rng(GetParam());
  int n = static_cast<int>(2 + rng.NextBounded(10));
  std::vector<AttributeId> attrs(static_cast<size_t>(n));
  std::vector<int> labels(static_cast<size_t>(n));
  int k = static_cast<int>(1 + rng.NextBounded(static_cast<uint64_t>(n)));
  for (int i = 0; i < n; ++i) {
    attrs[static_cast<size_t>(i)] = i;
    labels[static_cast<size_t>(i)] =
        i < k ? i : static_cast<int>(rng.NextBounded(static_cast<uint64_t>(k)));
  }
  auto partition = AttributePartition::FromAssignment(attrs, labels);
  ASSERT_TRUE(partition.ok());
  auto reparsed = AttributePartition::Parse(partition->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*partition, *reparsed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionRoundTripTest,
                         ::testing::Range(uint64_t{1}, uint64_t{15}));

class DendrogramPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DendrogramPropertyTest, CutsNestOnRandomPoints) {
  Rng rng(GetParam());
  int n = static_cast<int>(3 + rng.NextBounded(10));
  std::vector<FeatureVector> points;
  for (int i = 0; i < n; ++i) {
    points.push_back({rng.NextDouble(0, 10), rng.NextDouble(0, 10),
                      rng.NextDouble(0, 10)});
  }
  AgglomerativeOptions opts;
  opts.metric = DistanceMetric::kEuclidean;
  auto d = AgglomerativeCluster(points, opts);
  ASSERT_TRUE(d.ok());
  for (int k = 1; k < n; ++k) {
    auto coarse = d->CutToK(k).MoveValue();
    auto fine = d->CutToK(k + 1).MoveValue();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (fine[static_cast<size_t>(i)] == fine[static_cast<size_t>(j)]) {
          EXPECT_EQ(coarse[static_cast<size_t>(i)],
                    coarse[static_cast<size_t>(j)]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DendrogramPropertyTest,
                         ::testing::Values(5ull, 6ull, 7ull, 8ull));

}  // namespace
}  // namespace tdac
