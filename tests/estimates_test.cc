#include "td/estimates.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

TEST(TwoEstimatesTest, FindsMajorityTruth) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  TwoEstimates est;
  auto r = est.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i, d), *truth.Get(0, i)) << "item " << i;
  }
}

TEST(TwoEstimatesTest, ErrorRatesSeparateSources) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(20, &truth);
  TwoEstimates est;
  auto r = est.Discover(d);
  ASSERT_TRUE(r.ok());
  // source_trust = 1 - error.
  EXPECT_GT(r->source_trust[0], r->source_trust[2]);
}

TEST(TwoEstimatesTest, NegativeClaimsMatter) {
  // s3 never repeats other sources' values. Because claiming value X
  // implicitly denies value Y on the same item, a source that is wrong
  // positively is also "right" negatively; 2-Estimates still separates it
  // because its positive statements are consistently minority.
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(15, &truth);
  TwoEstimates est;
  auto r = est.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i, d), *truth.Get(0, i));
  }
}

TEST(TwoEstimatesTest, NormalizationCanBeDisabled) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  EstimatesOptions opts;
  opts.normalize = false;
  TwoEstimates est(opts);
  auto r = est.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i, d), *truth.Get(0, i));
  }
}

TEST(TwoEstimatesTest, ConfidencesInUnitInterval) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  TwoEstimates est;
  auto r = est.Discover(d);
  ASSERT_TRUE(r.ok());
  for (double c : r->predicted.confidences) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(ThreeEstimatesTest, FindsMajorityTruth) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  ThreeEstimates est;
  auto r = est.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i, d), *truth.Get(0, i));
  }
}

TEST(ThreeEstimatesTest, HandlesMixedDifficulty) {
  // Easy items: everyone agrees. Hard item: a 2-2 split where the pair
  // that was right on the easy items should win via lower error rates.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 10; ++i) {
    std::string attr = "easy" + std::to_string(i);
    specs.push_back({"g1", "o", attr, 10 + i});
    specs.push_back({"g2", "o", attr, 10 + i});
    specs.push_back({"b1", "o", attr, 500 + i});
    specs.push_back({"b2", "o", attr, 600 + i});
  }
  specs.push_back({"g1", "o", "hard", 1});
  specs.push_back({"g2", "o", "hard", 1});
  specs.push_back({"b1", "o", "hard", 2});
  specs.push_back({"b2", "o", "hard", 2});
  Dataset d = BuildDataset(specs);
  ThreeEstimates est;
  auto r = est.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->predicted.Get(0, 10, d), Value(int64_t{1}));
}

TEST(EstimatesTest, NamesAreStable) {
  EXPECT_EQ(TwoEstimates().name(), "2-Estimates");
  EXPECT_EQ(ThreeEstimates().name(), "3-Estimates");
}

TEST(EstimatesTest, EmptyDatasetRejected) {
  Dataset d;
  EXPECT_FALSE(TwoEstimates().Discover(d).ok());
}

TEST(EstimatesTest, WorksAsTdacBase) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(6, &truth);
  TwoEstimates est;
  auto r = est.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->predicted.size(), d.DataItems().size());
}

}  // namespace
}  // namespace tdac
