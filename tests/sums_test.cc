#include "td/sums.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

TEST(SumsTest, MajorityOfMutuallySupportingSourcesWins) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  Sums sums;
  auto r = sums.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i, d), *truth.Get(0, i)) << "item " << i;
  }
}

TEST(SumsTest, TrustIsMaxNormalized) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  Sums sums;
  auto r = sums.Discover(d);
  ASSERT_TRUE(r.ok());
  double mx = 0.0;
  for (double t : r->source_trust) {
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
    mx = std::max(mx, t);
  }
  EXPECT_NEAR(mx, 1.0, 1e-9);
  // The dissenting source ends with strictly lower trust.
  EXPECT_LT(r->source_trust[2], r->source_trust[0]);
}

TEST(SumsTest, MutualReinforcementBeatsRawCounting) {
  // Two well-connected sources agree across many items; on one contested
  // item they face three sources that appear nowhere else. Sums lets the
  // agreeing pair's accumulated authority outweigh the raw 3-vs-2 count.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 30; ++i) {
    std::string attr = "cal" + std::to_string(i);
    specs.push_back({"a1", "o", attr, 10 + i});
    specs.push_back({"a2", "o", attr, 10 + i});
    specs.push_back({"noise", "o", attr, 500 + i});
  }
  specs.push_back({"a1", "o", "contested", 777});
  specs.push_back({"a2", "o", "contested", 777});
  specs.push_back({"x1", "o", "contested", 888});
  specs.push_back({"x2", "o", "contested", 888});
  specs.push_back({"x3", "o", "contested", 888});
  Dataset d = BuildDataset(specs);
  Sums sums;
  auto r = sums.Discover(d);
  ASSERT_TRUE(r.ok());
  AttributeId contested = 30;
  EXPECT_EQ(*r->predicted.Get(0, contested, d), Value(int64_t{777}));
}

TEST(SumsTest, IterationsBounded) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(5, &truth);
  SumsOptions opts;
  opts.base.max_iterations = 3;
  Sums sums(opts);
  auto r = sums.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->iterations, 3);
}

TEST(AverageLogTest, FindsTruthOnCleanData) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  AverageLog avg_log;
  auto r = avg_log.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i, d), *truth.Get(0, i));
  }
}

TEST(AverageLogTest, DampsThinSources) {
  // "thin" claims a single (uncontested) item; "broad" agrees with the
  // majority across many items. Under AverageLog the thin source's trust
  // must not exceed the broad one's, even though its single claim is
  // maximally believed.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 20; ++i) {
    std::string attr = "a" + std::to_string(i);
    specs.push_back({"broad1", "o", attr, 10 + i});
    specs.push_back({"broad2", "o", attr, 10 + i});
  }
  specs.push_back({"thin", "o", "solo", 999});
  Dataset d = BuildDataset(specs);
  AverageLog avg_log;
  auto r = avg_log.Discover(d);
  ASSERT_TRUE(r.ok());
  SourceId broad1 = 0;
  SourceId thin = 2;
  EXPECT_LE(r->source_trust[thin], r->source_trust[broad1] + 1e-9);
}

TEST(SumsTest, NamesAreStable) {
  EXPECT_EQ(Sums().name(), "Sums");
  EXPECT_EQ(AverageLog().name(), "AverageLog");
}

TEST(SumsTest, EmptyDatasetRejected) {
  Dataset d;
  EXPECT_FALSE(Sums().Discover(d).ok());
}

}  // namespace
}  // namespace tdac
