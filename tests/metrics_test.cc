#include "eval/metrics.h"

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/dataset_builder.h"
#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

TEST(MetricsTest, PerfectPredictionScoresOne) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(5, &truth);
  PerformanceMetrics m = Evaluate(d, truth, truth);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
  EXPECT_DOUBLE_EQ(m.item_accuracy, 1.0);
}

TEST(MetricsTest, CountsFollowDefinition) {
  // One item, 3 claims: values 1, 1, 2. Gold truth = 1, prediction = 2.
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 1},
      {"s3", "o", "a", 2},
  });
  GroundTruth gold;
  gold.Set(0, 0, Value(int64_t{1}));
  GroundTruth predicted;
  predicted.Set(0, 0, Value(int64_t{2}));
  PerformanceMetrics m = Evaluate(d, predicted, gold);
  // Claim "2": predicted positive, actually negative -> FP.
  // Claims "1": predicted negative, actually positive -> FN each.
  EXPECT_EQ(m.counts.tp, 0u);
  EXPECT_EQ(m.counts.fp, 1u);
  EXPECT_EQ(m.counts.fn, 2u);
  EXPECT_EQ(m.counts.tn, 0u);
  EXPECT_DOUBLE_EQ(m.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(m.item_accuracy, 0.0);
}

TEST(MetricsTest, MixedPrediction) {
  // Two items. Item a: gold 1, predicted 1 (claims: 1,1,2).
  // Item b: gold 3, predicted 4 (claims: 3,4).
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 1},
      {"s3", "o", "a", 2},
      {"s1", "o", "b", 3},
      {"s2", "o", "b", 4},
  });
  GroundTruth gold;
  gold.Set(0, 0, Value(int64_t{1}));
  gold.Set(0, 1, Value(int64_t{3}));
  GroundTruth predicted;
  predicted.Set(0, 0, Value(int64_t{1}));
  predicted.Set(0, 1, Value(int64_t{4}));
  PerformanceMetrics m = Evaluate(d, predicted, gold);
  // Item a: TP, TP, TN. Item b: FN (claim 3), FP (claim 4).
  EXPECT_EQ(m.counts.tp, 2u);
  EXPECT_EQ(m.counts.tn, 1u);
  EXPECT_EQ(m.counts.fn, 1u);
  EXPECT_EQ(m.counts.fp, 1u);
  EXPECT_DOUBLE_EQ(m.precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.recall, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.accuracy, 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(m.item_accuracy, 0.5);
}

TEST(MetricsTest, SkipsItemsWithoutGoldOrPrediction) {
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s1", "o", "b", 2},
  });
  GroundTruth gold;
  gold.Set(0, 0, Value(int64_t{1}));  // no gold for b
  GroundTruth predicted;
  predicted.Set(0, 0, Value(int64_t{1}));
  predicted.Set(0, 1, Value(int64_t{2}));
  PerformanceMetrics m = Evaluate(d, predicted, gold);
  EXPECT_EQ(m.counts.total(), 1u);
  EXPECT_EQ(m.counts.skipped_claims, 1u);
  EXPECT_EQ(m.items_evaluated, 1u);
}

TEST(MetricsTest, EmptyCountsYieldZeroes) {
  PerformanceMetrics m = MetricsFromCounts(ConfusionCounts{});
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

TEST(MetricsTest, F1IsHarmonicMean) {
  ConfusionCounts c;
  c.tp = 6;
  c.fp = 2;  // precision 0.75
  c.fn = 6;  // recall 0.5
  PerformanceMetrics m = MetricsFromCounts(c);
  EXPECT_DOUBLE_EQ(m.precision, 0.75);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  EXPECT_NEAR(m.f1, 2 * 0.75 * 0.5 / (0.75 + 0.5), 1e-12);
}

TEST(MetricsTest, AccuracyCountsTrueNegatives) {
  // A prediction that is wrong on a contested item still gets TN credit for
  // rejecting other false claims — accuracy > precision on noisy data, as in
  // the paper's tables.
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 2},
      {"s3", "o", "a", 3},
      {"s4", "o", "a", 4},
  });
  GroundTruth gold;
  gold.Set(0, 0, Value(int64_t{1}));
  GroundTruth predicted;
  predicted.Set(0, 0, Value(int64_t{2}));
  PerformanceMetrics m = Evaluate(d, predicted, gold);
  EXPECT_EQ(m.counts.tn, 2u);  // claims 3 and 4
  EXPECT_DOUBLE_EQ(m.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
}

/// Values that trip id-based comparison: a NaN (equal to nothing, itself
/// included), +0.0 and -0.0 (equal), int 2 and double 2.0 (not equal),
/// the string "2", and values no claim carries.
std::vector<Value> TrickyValues() {
  return {
      Value(std::nan("")),
      Value(0.0),
      Value(-0.0),
      Value(int64_t{2}),
      Value(2.0),
      Value("2"),
      Value(int64_t{0}),
      Value("absent"),
      Value(int64_t{99}),
  };
}

/// The counts Evaluate must produce, taken claim by claim with
/// Value::operator== from the GroundTruth forms of both sides.
PerformanceMetrics ExpectedByValueEquality(const Dataset& d,
                                           const GroundTruth& predicted,
                                           const GroundTruth& gold) {
  ConfusionCounts counts;
  size_t correct = 0;
  size_t evaluated = 0;
  for (uint64_t key : d.DataItems()) {
    const ObjectId o = ObjectFromKey(key);
    const AttributeId a = AttributeFromKey(key);
    const std::span<const int32_t> claims = d.ClaimsOn(o, a);
    const Value* p = predicted.Get(o, a);
    const Value* g = gold.Get(o, a);
    if (p == nullptr || g == nullptr) {
      counts.skipped_claims += claims.size();
      continue;
    }
    ++evaluated;
    if (*p == *g) ++correct;
    for (int32_t idx : claims) {
      const Value claimed = d.claim(static_cast<size_t>(idx)).value;
      const bool predicted_positive = claimed == *p;
      const bool actually_positive = claimed == *g;
      if (predicted_positive && actually_positive) ++counts.tp;
      if (predicted_positive && !actually_positive) ++counts.fp;
      if (!predicted_positive && actually_positive) ++counts.fn;
      if (!predicted_positive && !actually_positive) ++counts.tn;
    }
  }
  PerformanceMetrics m = MetricsFromCounts(counts);
  m.items_evaluated = evaluated;
  m.item_accuracy =
      evaluated > 0 ? static_cast<double>(correct) / evaluated : 0.0;
  return m;
}

void ExpectSameMetrics(const PerformanceMetrics& actual,
                       const PerformanceMetrics& expected,
                       const std::string& label) {
  EXPECT_EQ(actual.counts.tp, expected.counts.tp) << label;
  EXPECT_EQ(actual.counts.fp, expected.counts.fp) << label;
  EXPECT_EQ(actual.counts.tn, expected.counts.tn) << label;
  EXPECT_EQ(actual.counts.fn, expected.counts.fn) << label;
  EXPECT_EQ(actual.counts.skipped_claims, expected.counts.skipped_claims)
      << label;
  EXPECT_EQ(actual.items_evaluated, expected.items_evaluated) << label;
  EXPECT_EQ(actual.item_accuracy, expected.item_accuracy) << label;
}

class MetricsValueEqualityTest : public ::testing::TestWithParam<uint64_t> {};

// A run's predictions hold value ids, and Evaluate compares ids: over
// random datasets of tricky values, with elected values drawn from each
// item's claims, gold values from anywhere (the dictionary may lack them)
// and items missing from either side, both Evaluate forms give exactly the
// counts Value equality gives.
TEST_P(MetricsValueEqualityTest, IdComparisonCountsAsValueEquality) {
  Rng rng(GetParam());
  const std::vector<Value> pool = TrickyValues();
  DatasetBuilder builder;
  for (int s = 0; s < 5; ++s) {
    for (int o = 0; o < 3; ++o) {
      for (int a = 0; a < 4; ++a) {
        if (!rng.NextBernoulli(0.7)) continue;
        // Claims draw from the first seven values only.
        const Value& value = pool[rng.NextBounded(7)];
        ASSERT_TRUE(builder
                        .AddClaim("s" + std::to_string(s),
                                  "o" + std::to_string(o),
                                  "a" + std::to_string(a), value)
                        .ok());
      }
    }
  }
  ASSERT_TRUE(builder.AddClaim("s0", "o9", "a9", Value(std::nan(""))).ok());
  const Dataset d = builder.Build().MoveValue();
  const ValueDict& dict = d.value_dict();

  Predictions predicted;
  GroundTruth predicted_values;
  GroundTruth gold;
  for (size_t row = 0; row < d.DataItems().size(); ++row) {
    const uint64_t key = d.DataItems()[row];
    const ObjectId o = ObjectFromKey(key);
    const AttributeId a = AttributeFromKey(key);
    if (rng.NextBernoulli(0.85)) {
      const std::span<const int32_t> claims = d.ClaimsAt(row);
      const int32_t claim = claims[rng.NextBounded(claims.size())];
      const ValueId id = d.claim_value_ids()[static_cast<size_t>(claim)];
      predicted.Add(key, id, 0.5);
      predicted_values.Set(o, a, dict.ValueAt(id));
    }
    if (rng.NextBernoulli(0.85)) {
      gold.Set(o, a, pool[rng.NextBounded(pool.size())]);
    }
  }
  const PerformanceMetrics expected =
      ExpectedByValueEquality(d, predicted_values, gold);
  ExpectSameMetrics(Evaluate(d, predicted, gold), expected, "predictions");
  ExpectSameMetrics(Evaluate(d, predicted_values, gold), expected,
                    "ground truth");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsValueEqualityTest,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

}  // namespace
}  // namespace tdac
