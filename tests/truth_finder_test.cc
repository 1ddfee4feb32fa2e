#include "td/truth_finder.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

TEST(TruthFinderTest, AgreeingMajorityWins) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  TruthFinder tf;
  auto r = tf.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i, d), *truth.Get(0, i)) << "item " << i;
  }
}

TEST(TruthFinderTest, TrustSeparatesGoodFromBad) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(20, &truth);
  TruthFinder tf;
  auto r = tf.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->source_trust[0], r->source_trust[2]);
  EXPECT_GT(r->source_trust[1], r->source_trust[2]);
}

TEST(TruthFinderTest, IterationsBoundedAndReported) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  TruthFinderOptions opts;
  opts.base.max_iterations = 3;
  TruthFinder tf(opts);
  auto r = tf.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->iterations, 3);
  EXPECT_GE(r->iterations, 1);
}

TEST(TruthFinderTest, ConvergesOnStableData) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  TruthFinder tf;
  auto r = tf.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
}

TEST(TruthFinderTest, ConfidencesAreProbabilities) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  TruthFinder tf;
  auto r = tf.Discover(d);
  ASSERT_TRUE(r.ok());
  for (double conf : r->predicted.confidences) {
    EXPECT_GE(conf, 0.0);
    EXPECT_LE(conf, 1.0);
  }
}

TEST(TruthFinderTest, ImplicationBoostsSimilarValues) {
  // Two sources claim 1000, two claim 1001 (very close), one claims 5000.
  // With implication on, the 1000/1001 cluster should beat 5000 and the
  // elected value should come from that cluster.
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1000},
      {"s2", "o", "a", 1000},
      {"s3", "o", "a", 1001},
      {"s4", "o", "a", 1001},
      {"s5", "o", "a", 5000},
  });
  TruthFinder tf;
  auto r = tf.Discover(d);
  ASSERT_TRUE(r.ok());
  const Value elected = *r->predicted.Get(0, 0, d);
  EXPECT_TRUE(elected == Value(int64_t{1000}) ||
              elected == Value(int64_t{1001}));
}

TEST(TruthFinderTest, ZeroImplicationWeightDisablesAdjustment) {
  TruthFinderOptions opts;
  opts.implication_weight = 0.0;
  Dataset d = BuildDataset({
      {"s1", "o", "a", 10},
      {"s2", "o", "a", 20},
      {"s3", "o", "a", 20},
  });
  TruthFinder tf(opts);
  auto r = tf.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->predicted.Get(0, 0, d), Value(int64_t{20}));
}

TEST(TruthFinderTest, SourceWithNoClaimsKeepsInitialTrust) {
  DatasetBuilder b;
  b.AddSource("idle");
  ASSERT_TRUE(b.AddClaim("s1", "o", "a", Value(int64_t{1})).ok());
  ASSERT_TRUE(b.AddClaim("s2", "o", "a", Value(int64_t{1})).ok());
  Dataset d = b.Build().MoveValue();
  TruthFinder tf;
  auto r = tf.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->source_trust[0], tf.options().initial_trust, 1e-9);
}

TEST(TruthFinderTest, NameIsStable) {
  EXPECT_EQ(TruthFinder().name(), "TruthFinder");
}

}  // namespace
}  // namespace tdac
