#include "clustering/silhouette.h"

#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace tdac {
namespace {

TEST(SilhouetteTest, PerfectSeparationScoresHigh) {
  std::vector<FeatureVector> points{
      {0, 0}, {0, 1}, {1, 0},      // cluster 0, tight
      {10, 10}, {10, 11}, {11, 10}  // cluster 1, tight
  };
  std::vector<int> assignment{0, 0, 0, 1, 1, 1};
  auto r = Silhouette(points, assignment, 2, DistanceMetric::kEuclidean);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->partition_score, 0.85);
  for (double s : r->point_scores) EXPECT_GT(s, 0.8);
}

TEST(SilhouetteTest, BadSplitScoresLow) {
  // Split one tight blob in half: silhouette should be poor.
  std::vector<FeatureVector> points{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  std::vector<int> assignment{0, 1, 0, 1};
  auto r = Silhouette(points, assignment, 2, DistanceMetric::kEuclidean);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->partition_score, 0.2);
}

TEST(SilhouetteTest, GoodSplitBeatsBadSplit) {
  std::vector<FeatureVector> points{{0, 0}, {0.5, 0}, {10, 0}, {10.5, 0}};
  std::vector<int> good{0, 0, 1, 1};
  std::vector<int> bad{0, 1, 0, 1};
  auto rg = Silhouette(points, good, 2, DistanceMetric::kEuclidean);
  auto rb = Silhouette(points, bad, 2, DistanceMetric::kEuclidean);
  ASSERT_TRUE(rg.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_GT(rg->partition_score, rb->partition_score);
}

TEST(SilhouetteTest, SingletonClusterScoresZero) {
  std::vector<FeatureVector> points{{0, 0}, {0, 1}, {9, 9}};
  std::vector<int> assignment{0, 0, 1};
  auto r = Silhouette(points, assignment, 2, DistanceMetric::kEuclidean);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->point_scores[2], 0.0);
  EXPECT_DOUBLE_EQ(r->cluster_scores[1], 0.0);
}

TEST(SilhouetteTest, ScoresBoundedByOne) {
  std::vector<FeatureVector> points{
      {1, 0, 1}, {1, 0, 0}, {0, 1, 1}, {0, 1, 0}, {1, 1, 1}};
  std::vector<int> assignment{0, 0, 1, 1, 0};
  auto r = Silhouette(points, assignment, 2);
  ASSERT_TRUE(r.ok());
  for (double s : r->point_scores) {
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
  EXPECT_GE(r->partition_score, -1.0);
  EXPECT_LE(r->partition_score, 1.0);
}

TEST(SilhouetteTest, PaperMacroAverageVsPointAverage) {
  // One big tight cluster and one small far cluster of 2: the macro
  // (per-cluster) average differs from the per-point average.
  std::vector<FeatureVector> points{{0, 0}, {0, 1}, {1, 0}, {1, 1},
                                    {50, 50}, {50, 51}};
  std::vector<int> assignment{0, 0, 0, 0, 1, 1};
  auto r = Silhouette(points, assignment, 2, DistanceMetric::kEuclidean);
  ASSERT_TRUE(r.ok());
  // cluster averages
  double macro = (r->cluster_scores[0] + r->cluster_scores[1]) / 2.0;
  EXPECT_NEAR(r->partition_score, macro, 1e-12);
  EXPECT_GT(r->mean_point_score, 0.0);
}

TEST(SilhouetteTest, RejectsDegenerateInput) {
  std::vector<FeatureVector> points{{0, 0}, {1, 1}};
  EXPECT_FALSE(Silhouette(points, {0, 0}, 1).ok());       // k < 2
  EXPECT_FALSE(Silhouette(points, {0}, 2).ok());          // size mismatch
  EXPECT_FALSE(Silhouette(points, {0, 5}, 2).ok());       // label range
  EXPECT_FALSE(Silhouette(points, {0, 0}, 2).ok());       // empty cluster
  EXPECT_FALSE(Silhouette({}, {}, 2).ok());               // no points
}

TEST(SilhouetteFromDistancesTest, MatchesPointsVersion) {
  std::vector<FeatureVector> points{{1, 0, 1}, {1, 0, 0}, {0, 1, 1},
                                    {0, 1, 0}};
  std::vector<int> assignment{0, 0, 1, 1};
  auto direct = Silhouette(points, assignment, 2, DistanceMetric::kHamming);
  ASSERT_TRUE(direct.ok());
  std::vector<std::vector<double>> dist(4, std::vector<double>(4, 0.0));
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      dist[i][j] = HammingDistance(points[i], points[j]);
    }
  }
  auto from_dist = SilhouetteFromDistances(dist, assignment, 2);
  ASSERT_TRUE(from_dist.ok());
  EXPECT_DOUBLE_EQ(direct->partition_score, from_dist->partition_score);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(direct->point_scores[i], from_dist->point_scores[i]);
  }
}

TEST(SilhouetteFromDistancesTest, RejectsNonSquareMatrix) {
  std::vector<std::vector<double>> dist{{0, 1}, {1}};
  EXPECT_FALSE(SilhouetteFromDistances(dist, {0, 1}, 2).ok());
}

// Regression: a NaN (or inf, or negative) distance cell used to propagate
// silently into every point score and the partition score — and NaN
// comparisons inside the k-sweep's ArgMax are order-dependent. Malformed
// matrices must be refused with a Status instead.
TEST(SilhouetteFromDistancesTest, RejectsNonFiniteAndNegativeDistances) {
  std::vector<std::vector<double>> dist(3, std::vector<double>(3, 1.0));
  for (size_t i = 0; i < 3; ++i) dist[i][i] = 0.0;
  const std::vector<int> assignment{0, 0, 1};
  ASSERT_TRUE(SilhouetteFromDistances(dist, assignment, 2).ok());

  auto with = [&](double bad) {
    auto d = dist;
    d[0][1] = bad;
    d[1][0] = bad;
    return SilhouetteFromDistances(d, assignment, 2);
  };
  EXPECT_FALSE(with(std::numeric_limits<double>::quiet_NaN()).ok());
  EXPECT_FALSE(with(std::numeric_limits<double>::infinity()).ok());
  EXPECT_FALSE(with(-0.5).ok());
}

TEST(SilhouetteFromDistancesTest, RejectsAsymmetricMatrix) {
  std::vector<std::vector<double>> dist{
      {0.0, 1.0, 2.0}, {1.0, 0.0, 3.0}, {2.0, 3.5, 0.0}};  // [2][1] != [1][2]
  auto r = SilhouetteFromDistances(dist, {0, 0, 1}, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// TD-AC's pass checks its matrix once and scores every k with the checked
// scorer: the split must score exactly as the public function, and the
// check must refuse what the public function refuses.
TEST(SilhouetteFromDistancesTest, CheckOnceThenScoreMatchesPublicFunction) {
  const std::vector<std::vector<double>> dist{{0.0, 1.0, 4.0, 3.0},
                                              {1.0, 0.0, 2.0, 5.0},
                                              {4.0, 2.0, 0.0, 1.5},
                                              {3.0, 5.0, 1.5, 0.0}};
  ASSERT_TRUE(CheckDistanceMatrix(dist).ok());
  for (const std::vector<int>& assignment :
       {std::vector<int>{0, 0, 1, 1}, std::vector<int>{0, 1, 1, 2}}) {
    const int k = *std::max_element(assignment.begin(), assignment.end()) + 1;
    auto whole = SilhouetteFromDistances(dist, assignment, k);
    auto scored = SilhouetteFromCheckedDistances(dist, assignment, k);
    ASSERT_TRUE(whole.ok());
    ASSERT_TRUE(scored.ok());
    EXPECT_EQ(whole->point_scores, scored->point_scores);
    EXPECT_EQ(whole->cluster_scores, scored->cluster_scores);
    EXPECT_EQ(whole->partition_score, scored->partition_score);
  }
  // The scorer still checks the assignment.
  EXPECT_FALSE(SilhouetteFromCheckedDistances(dist, {0, 0, 1}, 2).ok());
  EXPECT_FALSE(SilhouetteFromCheckedDistances(dist, {0, 0, 0, 0}, 2).ok());

  auto bad = dist;
  bad[0][1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(CheckDistanceMatrix(bad).ok());
  bad = dist;
  bad[2][1] = 2.5;  // asymmetric
  EXPECT_FALSE(CheckDistanceMatrix(bad).ok());
  EXPECT_FALSE(CheckDistanceMatrix({{0.0, 1.0}, {1.0}}).ok());
  EXPECT_FALSE(CheckDistanceMatrix({}).ok());
}

// Degenerate adversarial shape: every pairwise distance identical (all
// sources look the same to the clustering features). alpha == beta for
// every point, so all scores must be exactly 0 — no NaN from the 0/0 and
// no accidental preference for any k.
TEST(SilhouetteFromDistancesTest, AllIdenticalDistancesScoreZero) {
  for (double d : {0.0, 2.5}) {
    std::vector<std::vector<double>> dist(4, std::vector<double>(4, d));
    for (size_t i = 0; i < 4; ++i) dist[i][i] = 0.0;
    auto r = SilhouetteFromDistances(dist, {0, 0, 1, 1}, 2);
    ASSERT_TRUE(r.ok()) << d;
    for (double s : r->point_scores) EXPECT_DOUBLE_EQ(s, 0.0) << d;
    EXPECT_DOUBLE_EQ(r->partition_score, 0.0) << d;
  }
}

// Degenerate partition: k == n, every cluster a singleton. The singleton
// convention pins every score to 0 (rather than dividing by size-1 == 0).
TEST(SilhouetteFromDistancesTest, AllSingletonPartitionScoresZero) {
  std::vector<std::vector<double>> dist{
      {0.0, 1.0, 4.0}, {1.0, 0.0, 2.0}, {4.0, 2.0, 0.0}};
  auto r = SilhouetteFromDistances(dist, {0, 1, 2}, 3);
  ASSERT_TRUE(r.ok());
  for (double s : r->point_scores) EXPECT_DOUBLE_EQ(s, 0.0);
  EXPECT_DOUBLE_EQ(r->partition_score, 0.0);
}

}  // namespace
}  // namespace tdac
