#include "td/majority_vote.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

TEST(MajorityVoteTest, PicksMostSupportedValue) {
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 1},
      {"s3", "o", "a", 2},
  });
  MajorityVote mv;
  auto r = mv.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->predicted.Get(0, 0, d), Value(int64_t{1}));
  EXPECT_NEAR(r->predicted.confidences[r->predicted.Find(0, 0)], 2.0 / 3.0,
              1e-12);
}

TEST(MajorityVoteTest, TieBreaksToSmallestValue) {
  Dataset d = BuildDataset({
      {"s1", "o", "a", 9},
      {"s2", "o", "a", 4},
  });
  MajorityVote mv;
  auto r = mv.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->predicted.Get(0, 0, d), Value(int64_t{4}));
}

TEST(MajorityVoteTest, SingleIteration) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(5, &truth);
  MajorityVote mv;
  auto r = mv.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->iterations, 1);
  EXPECT_TRUE(r->converged);
}

TEST(MajorityVoteTest, PredictsEveryDataItem) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(7, &truth);
  MajorityVote mv;
  auto r = mv.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->predicted.size(), d.DataItems().size());
}

TEST(MajorityVoteTest, SourceTrustReflectsAgreement) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(5, &truth);
  MajorityVote mv;
  auto r = mv.Discover(d);
  ASSERT_TRUE(r.ok());
  // good1=0, good2=1, bad=2 by interning order.
  EXPECT_NEAR(r->source_trust[0], 1.0, 1e-12);
  EXPECT_NEAR(r->source_trust[1], 1.0, 1e-12);
  EXPECT_NEAR(r->source_trust[2], 0.0, 1e-12);
}

TEST(MajorityVoteTest, NameIsStable) {
  EXPECT_EQ(MajorityVote().name(), "MajorityVote");
}

TEST(MajorityVoteTest, HandlesItemWithSingleClaim) {
  Dataset d = BuildDataset({{"s1", "o", "a", 5}});
  MajorityVote mv;
  auto r = mv.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->predicted.Get(0, 0, d), Value(int64_t{5}));
  EXPECT_NEAR(r->predicted.confidences[r->predicted.Find(0, 0)], 1.0, 1e-12);
}

}  // namespace
}  // namespace tdac
