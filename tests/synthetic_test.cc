#include "gen/synthetic.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

namespace tdac {
namespace {

TEST(SyntheticTest, CountsMatchConfig) {
  SyntheticConfig config;
  config.num_objects = 30;
  config.num_sources = 5;
  config.planted_groups = {{0, 1}, {2, 3}};
  config.seed = 1;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->dataset.num_objects(), 30);
  EXPECT_EQ(data->dataset.num_sources(), 5);
  EXPECT_EQ(data->dataset.num_attributes(), 4);
  // Full coverage: objects x sources x attributes claims.
  EXPECT_EQ(data->dataset.num_claims(), 30u * 5u * 4u);
  EXPECT_NEAR(data->dataset.DataCoverageRate(), 100.0, 1e-9);
}

TEST(SyntheticTest, TruthCoversEveryItem) {
  SyntheticConfig config;
  config.num_objects = 10;
  config.num_sources = 3;
  config.planted_groups = {{0}, {1, 2}};
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->truth.size(), 10u * 3u);
  for (uint64_t key : data->dataset.DataItems()) {
    EXPECT_TRUE(data->truth.Has(ObjectFromKey(key), AttributeFromKey(key)));
  }
}

TEST(SyntheticTest, DeterministicForSeed) {
  SyntheticConfig config;
  config.num_objects = 15;
  config.num_sources = 4;
  config.planted_groups = {{0, 1}, {2}};
  config.seed = 99;
  auto a = GenerateSynthetic(config);
  auto b = GenerateSynthetic(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->dataset.num_claims(), b->dataset.num_claims());
  for (size_t i = 0; i < a->dataset.num_claims(); ++i) {
    EXPECT_EQ(a->dataset.claim(i), b->dataset.claim(i));
  }
  EXPECT_EQ(a->reliability, b->reliability);
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticConfig config;
  config.num_objects = 15;
  config.num_sources = 4;
  config.planted_groups = {{0, 1}, {2}};
  config.seed = 1;
  auto a = GenerateSynthetic(config);
  config.seed = 2;
  auto b = GenerateSynthetic(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  size_t diff = 0;
  size_t n = std::min(a->dataset.num_claims(), b->dataset.num_claims());
  for (size_t i = 0; i < n; ++i) {
    if (!(a->dataset.claim(i) == b->dataset.claim(i))) ++diff;
  }
  EXPECT_GT(diff, 0u);
}

TEST(SyntheticTest, ReliabilityOneMeansAlwaysTrue) {
  SyntheticConfig config;
  config.num_objects = 20;
  config.num_sources = 3;
  config.planted_groups = {{0, 1}};
  config.reliability_levels = {1.0};
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  for (int32_t id : data->dataset.claim_ids()) {
    const Claim c = data->dataset.claim(static_cast<size_t>(id));
    EXPECT_EQ(c.value, *data->truth.Get(c.object, c.attribute));
  }
}

TEST(SyntheticTest, ReliabilityZeroMeansNeverTrue) {
  SyntheticConfig config;
  config.num_objects = 20;
  config.num_sources = 3;
  config.planted_groups = {{0, 1}};
  config.reliability_levels = {0.0};
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  for (int32_t id : data->dataset.claim_ids()) {
    const Claim c = data->dataset.claim(static_cast<size_t>(id));
    EXPECT_NE(c.value, *data->truth.Get(c.object, c.attribute));
  }
}

TEST(SyntheticTest, EmpiricalAccuracyTracksReliability) {
  SyntheticConfig config;
  config.num_objects = 300;
  config.num_sources = 4;
  config.planted_groups = {{0, 1, 2}};
  config.reliability_levels = {0.7};
  config.seed = 3;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  // Every (source, group) cell has reliability 0.7; the empirical rate of
  // true claims should be close.
  size_t correct = 0;
  for (int32_t id : data->dataset.claim_ids()) {
    const Claim c = data->dataset.claim(static_cast<size_t>(id));
    if (c.value == *data->truth.Get(c.object, c.attribute)) ++correct;
  }
  double rate =
      static_cast<double>(correct) / static_cast<double>(data->dataset.num_claims());
  EXPECT_NEAR(rate, 0.7, 0.03);
}

TEST(SyntheticTest, PartialCoverageReducesClaims) {
  SyntheticConfig config;
  config.num_objects = 100;
  config.num_sources = 5;
  config.planted_groups = {{0, 1}};
  config.coverage = 0.5;
  config.seed = 8;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  double expected = 100 * 5 * 2 * 0.5;
  EXPECT_NEAR(static_cast<double>(data->dataset.num_claims()), expected,
              expected * 0.15);
}

TEST(SyntheticTest, PaperConfigsMatchTable3AndTable5) {
  for (int which = 1; which <= 3; ++which) {
    auto config = PaperSyntheticConfig(which);
    ASSERT_TRUE(config.ok()) << which;
    EXPECT_EQ(config->num_objects, 1000);
    EXPECT_EQ(config->num_sources, 10);
    AttributePartition planted =
        AttributePartition::FromGroups(config->planted_groups).MoveValue();
    EXPECT_EQ(planted.num_attributes(), 6u);
    EXPECT_EQ(config->reliability_levels.size(), 3u);
    EXPECT_DOUBLE_EQ(config->reliability_levels[0], 1.0);  // m1 = 1.0 always
  }
  EXPECT_FALSE(PaperSyntheticConfig(4).ok());
}

TEST(SyntheticTest, DistractorRateOneCollapsesErrorsToOneValue) {
  SyntheticConfig config;
  config.num_objects = 50;
  config.num_sources = 6;
  config.planted_groups = {{0, 1}};
  config.reliability_levels = {0.0};  // every claim is an error
  config.distractor_rate = 1.0;
  config.num_false_values = 10;
  config.seed = 4;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  // All errors land on the per-item distractor: one distinct value/item.
  for (uint64_t key : data->dataset.DataItems()) {
    const auto& claims =
        data->dataset.ClaimsOn(ObjectFromKey(key), AttributeFromKey(key));
    ASSERT_FALSE(claims.empty());
    const Value& first =
        data->dataset.claim(static_cast<size_t>(claims[0])).value;
    for (int32_t idx : claims) {
      EXPECT_EQ(data->dataset.claim(static_cast<size_t>(idx)).value, first);
    }
  }
}

TEST(SyntheticTest, DistractorRateZeroScattersErrors) {
  SyntheticConfig config;
  config.num_objects = 100;
  config.num_sources = 10;
  config.planted_groups = {{0}};
  config.reliability_levels = {0.0};
  config.distractor_rate = 0.0;
  config.num_false_values = 50;
  config.seed = 4;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  // With a wide pool and no distractor, most items see many distinct
  // wrong values.
  size_t multi = 0;
  for (uint64_t key : data->dataset.DataItems()) {
    std::set<std::string> distinct;
    for (int32_t idx :
         data->dataset.ClaimsOn(ObjectFromKey(key), AttributeFromKey(key))) {
      distinct.insert(
          data->dataset.claim(static_cast<size_t>(idx)).value.ToString());
    }
    if (distinct.size() >= 5) ++multi;
  }
  EXPECT_GT(multi, 80u);
}

TEST(SyntheticTest, StratifiedLevelsMeetProportionsExactly) {
  SyntheticConfig config;
  config.num_objects = 5;
  config.num_sources = 10;
  config.planted_groups = {{0, 1}, {2, 3}, {4}};
  config.reliability_levels = {1.0, 0.0};
  config.level_weights = {0.4, 0.6};
  config.stratified_levels = true;
  config.seed = 5;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  for (size_t g = 0; g < 3; ++g) {
    int good = 0;
    for (int s = 0; s < 10; ++s) {
      if (data->reliability[static_cast<size_t>(s)][g] > 0.5) ++good;
    }
    EXPECT_EQ(good, 4) << "group " << g;
  }
}

TEST(SyntheticTest, StratifiedShufflesAcrossGroups) {
  SyntheticConfig config;
  config.num_objects = 5;
  config.num_sources = 10;
  config.planted_groups = {{0}, {1}, {2}, {3}};
  config.reliability_levels = {1.0, 0.0};
  config.level_weights = {0.5, 0.5};
  config.stratified_levels = true;
  config.seed = 6;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  // At least one source must have different levels across groups (else the
  // shuffle is broken and there is no structural variety at all).
  bool varies = false;
  for (int s = 0; s < 10; ++s) {
    for (size_t g = 1; g < 4; ++g) {
      if (data->reliability[static_cast<size_t>(s)][g] !=
          data->reliability[static_cast<size_t>(s)][0]) {
        varies = true;
      }
    }
  }
  EXPECT_TRUE(varies);
}

TEST(SyntheticTest, LevelWeightsMustMatchLevels) {
  SyntheticConfig config;
  config.planted_groups = {{0, 1}};
  config.reliability_levels = {1.0, 0.0};
  config.level_weights = {1.0};  // wrong arity
  EXPECT_FALSE(GenerateSynthetic(config).ok());
}

// Regression: a per-item pool request larger than the drawable value
// domain used to spin the rejection-sampling loop forever (and degrade
// quadratically approaching it). It must be refused up front, before any
// generation work.
TEST(SyntheticTest, OversizedValuePoolIsRefusedNotLooped) {
  SyntheticConfig config;
  config.num_objects = 1;
  config.num_sources = 1;
  config.planted_groups = {{0}};
  config.num_false_values = 600000000;  // > half the 1e9 value domain
  auto data = GenerateSynthetic(config);
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kInvalidArgument);

  ObjectCorrelatedConfig oc;
  oc.planted_groups = {{0}};
  oc.num_false_values = 600000000;
  auto oc_data = GenerateObjectCorrelated(oc);
  ASSERT_FALSE(oc_data.ok());
  EXPECT_EQ(oc_data.status().code(), StatusCode::kInvalidArgument);
}

// Regression: all-zero level_weights in stratified mode divided by a zero
// total weight and fed inf through an int cast (undefined behavior; in
// practice a multi-billion-iteration loop). All-zero must mean uniform,
// matching Rng::NextWeighted on the independent-draw path.
TEST(SyntheticTest, StratifiedAllZeroWeightsMeansUniform) {
  SyntheticConfig config;
  config.num_objects = 2;
  config.num_sources = 10;
  config.planted_groups = {{0}, {1}};
  config.reliability_levels = {1.0, 0.0};
  config.level_weights = {0.0, 0.0};
  config.stratified_levels = true;
  config.seed = 11;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  for (size_t g = 0; g < 2; ++g) {
    int good = 0;
    for (int s = 0; s < 10; ++s) {
      if (data->reliability[static_cast<size_t>(s)][g] > 0.5) ++good;
    }
    EXPECT_EQ(good, 5) << "group " << g;
  }
}

TEST(SyntheticTest, RejectsMalformedLevelWeights) {
  SyntheticConfig config;
  config.num_objects = 2;
  config.num_sources = 4;
  config.planted_groups = {{0}};
  config.reliability_levels = {1.0, 0.0};
  for (bool stratified : {false, true}) {
    config.stratified_levels = stratified;
    config.level_weights = {-0.5, 1.5};
    EXPECT_FALSE(GenerateSynthetic(config).ok()) << stratified;
    config.level_weights = {std::numeric_limits<double>::infinity(), 1.0};
    EXPECT_FALSE(GenerateSynthetic(config).ok()) << stratified;
    config.level_weights = {std::numeric_limits<double>::quiet_NaN(), 1.0};
    EXPECT_FALSE(GenerateSynthetic(config).ok()) << stratified;
  }
}

// Largest-remainder apportionment: exact ties on the fractional parts must
// resolve deterministically (toward the lower level index) and the level
// counts must sum to the source count exactly — no off-by-one drift.
TEST(SyntheticTest, StratifiedLargestRemainderTiesAreDeterministic) {
  SyntheticConfig config;
  config.num_objects = 1;
  config.planted_groups = {{0}};
  config.reliability_levels = {1.0, 0.0};
  config.level_weights = {0.5, 0.5};
  config.stratified_levels = true;
  for (int sources : {1, 2, 3, 5, 7, 9, 10}) {
    config.num_sources = sources;
    config.seed = 21;
    auto data = GenerateSynthetic(config);
    ASSERT_TRUE(data.ok()) << sources;
    int good = 0;
    for (int s = 0; s < sources; ++s) {
      if (data->reliability[static_cast<size_t>(s)][0] > 0.5) ++good;
    }
    // Tie on .5 remainders goes to level 0 (the reliable one): ceil(n/2).
    EXPECT_EQ(good, (sources + 1) / 2) << sources;
  }
}

TEST(SyntheticTest, RejectsBadConfig) {
  SyntheticConfig config;
  config.planted_groups = {};
  EXPECT_FALSE(GenerateSynthetic(config).ok());
  config.planted_groups = {{0, 2}};  // gap: not 0..A-1
  EXPECT_FALSE(GenerateSynthetic(config).ok());
  config.planted_groups = {{0, 1}};
  config.coverage = 0.0;
  EXPECT_FALSE(GenerateSynthetic(config).ok());
}

}  // namespace
}  // namespace tdac
