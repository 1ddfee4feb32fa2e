#include "clustering/kmeans.h"

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"

namespace tdac {
namespace {

/// Two well-separated blobs around (0,...,0) and (10,...,10).
std::vector<FeatureVector> TwoBlobs(int per_blob, int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVector> points;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < per_blob; ++i) {
      FeatureVector p(static_cast<size_t>(dim));
      for (int d = 0; d < dim; ++d) {
        p[static_cast<size_t>(d)] = c * 10.0 + rng.NextGaussian(0.0, 0.5);
      }
      points.push_back(std::move(p));
    }
  }
  return points;
}

TEST(KMeansTest, RecoversTwoBlobs) {
  auto points = TwoBlobs(20, 3, 1);
  KMeansOptions opts;
  opts.k = 2;
  auto r = KMeans(points, opts);
  ASSERT_TRUE(r.ok());
  // All of blob 0 together, all of blob 1 together.
  int first = r->assignment[0];
  for (int i = 0; i < 20; ++i) EXPECT_EQ(r->assignment[i], first);
  int second = r->assignment[20];
  EXPECT_NE(second, first);
  for (int i = 20; i < 40; ++i) EXPECT_EQ(r->assignment[i], second);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  auto points = TwoBlobs(15, 2, 2);
  double prev = -1.0;
  for (int k = 1; k <= 4; ++k) {
    KMeansOptions opts;
    opts.k = k;
    auto r = KMeans(points, opts);
    ASSERT_TRUE(r.ok());
    if (prev >= 0.0) {
      EXPECT_LE(r->inertia, prev + 1e-9);
    }
    prev = r->inertia;
  }
}

TEST(KMeansTest, KEqualsOneGivesGlobalCentroid) {
  std::vector<FeatureVector> points{{0, 0}, {2, 0}, {0, 2}, {2, 2}};
  KMeansOptions opts;
  opts.k = 1;
  auto r = KMeans(points, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->centroids.size(), 1u);
  EXPECT_DOUBLE_EQ(r->centroids[0][0], 1.0);
  EXPECT_DOUBLE_EQ(r->centroids[0][1], 1.0);
  EXPECT_DOUBLE_EQ(r->inertia, 8.0);
}

TEST(KMeansTest, KEqualsNMakesSingletons) {
  std::vector<FeatureVector> points{{0, 0}, {5, 0}, {0, 5}};
  KMeansOptions opts;
  opts.k = 3;
  auto r = KMeans(points, opts);
  ASSERT_TRUE(r.ok());
  std::set<int> labels(r->assignment.begin(), r->assignment.end());
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_NEAR(r->inertia, 0.0, 1e-12);
}

TEST(KMeansTest, DeterministicForFixedSeed) {
  auto points = TwoBlobs(10, 4, 3);
  KMeansOptions opts;
  opts.k = 3;
  opts.seed = 99;
  auto a = KMeans(points, opts);
  auto b = KMeans(points, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_DOUBLE_EQ(a->inertia, b->inertia);
}

TEST(KMeansTest, ClusterSizesSumToN) {
  auto points = TwoBlobs(12, 2, 4);
  KMeansOptions opts;
  opts.k = 4;
  auto r = KMeans(points, opts);
  ASSERT_TRUE(r.ok());
  int total = 0;
  for (int s : r->cluster_sizes) total += s;
  EXPECT_EQ(total, 24);
}

TEST(KMeansTest, HandlesDuplicatePoints) {
  std::vector<FeatureVector> points(6, FeatureVector{1.0, 1.0});
  points.push_back({9.0, 9.0});
  KMeansOptions opts;
  opts.k = 2;
  auto r = KMeans(points, opts);
  ASSERT_TRUE(r.ok());
  // The outlier should sit alone.
  int outlier_label = r->assignment.back();
  int same = 0;
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    if (r->assignment[i] == outlier_label) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(KMeansTest, BinaryTruthVectorShapedInput) {
  // Attribute-truth-vector-like binary points: two correlated groups.
  std::vector<FeatureVector> points{
      {1, 1, 0, 0, 1, 1}, {1, 1, 0, 0, 1, 0}, {1, 1, 0, 0, 0, 1},
      {0, 0, 1, 1, 0, 0}, {0, 0, 1, 1, 0, 1}, {0, 0, 1, 1, 1, 0},
  };
  KMeansOptions opts;
  opts.k = 2;
  auto r = KMeans(points, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->assignment[0], r->assignment[1]);
  EXPECT_EQ(r->assignment[0], r->assignment[2]);
  EXPECT_EQ(r->assignment[3], r->assignment[4]);
  EXPECT_EQ(r->assignment[3], r->assignment[5]);
  EXPECT_NE(r->assignment[0], r->assignment[3]);
}

TEST(KMeansTest, ReportsConvergenceAndIterationsUsed) {
  // Two tight, well-separated blobs: Lloyd reaches an assignment fixpoint
  // almost immediately and must say so.
  std::vector<FeatureVector> points{
      {0, 0}, {0, 1}, {1, 0}, {10, 10}, {10, 11}, {11, 10}};
  KMeansOptions opts;
  opts.k = 2;
  auto r = KMeans(points, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_GE(r->iterations, 1);
  EXPECT_LT(r->iterations, opts.max_iterations);
}

TEST(KMeansTest, NonConvergenceIsReportedNotHidden) {
  // A one-iteration cap cannot reach the fixpoint check, so the result
  // must be flagged as non-converged (TD-AC's sweep logs a warning off
  // this flag instead of silently trusting a half-settled clustering).
  std::vector<FeatureVector> points{
      {0, 0}, {0, 1}, {1, 0}, {10, 10}, {10, 11}, {11, 10}, {5, 5}, {5, 6}};
  KMeansOptions opts;
  opts.k = 3;
  opts.max_iterations = 1;
  auto r = KMeans(points, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->converged);
  EXPECT_EQ(r->iterations, 1);
}

TEST(KMeansTest, InvalidArguments) {
  std::vector<FeatureVector> points{{1, 2}, {3, 4}};
  KMeansOptions opts;
  opts.k = 3;
  EXPECT_FALSE(KMeans(points, opts).ok());
  opts.k = 0;
  EXPECT_FALSE(KMeans(points, opts).ok());
  EXPECT_FALSE(KMeans({}, KMeansOptions{}).ok());
  std::vector<FeatureVector> ragged{{1, 2}, {3}};
  KMeansOptions ok;
  ok.k = 1;
  EXPECT_FALSE(KMeans(ragged, ok).ok());
  // Without one Lloyd iteration no point has a cluster; both the float and
  // the exact (0/1) input refuse the cap.
  std::vector<FeatureVector> binary{{0, 1}, {1, 1}};
  for (int cap : {0, -1}) {
    KMeansOptions no_loop;
    no_loop.k = 2;
    no_loop.max_iterations = cap;
    EXPECT_FALSE(KMeans(points, no_loop).ok()) << cap;
    EXPECT_FALSE(KMeans(binary, no_loop).ok()) << cap;
  }
}

using kmeans_internal::Engine;
using kmeans_internal::KMeansWithEngine;

constexpr Engine kAllEngines[] = {Engine::kFloat, Engine::kPairwise,
                                  Engine::kCounts};

/// n 0/1 points of `dim` coordinates. With `distinct` > 0 every point is a
/// copy of one of that many random rows, so duplicates abound.
std::vector<FeatureVector> RandomBinary(size_t n, size_t dim, size_t distinct,
                                        Rng* rng) {
  const double density = 0.1 + 0.8 * rng->NextDouble();
  auto row = [&] {
    FeatureVector p(dim);
    for (double& x : p) x = rng->NextBernoulli(density) ? 1.0 : 0.0;
    return p;
  };
  std::vector<FeatureVector> pool;
  for (size_t i = 0; i < distinct; ++i) pool.push_back(row());
  std::vector<FeatureVector> points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back(distinct > 0 ? pool[rng->NextBounded(distinct)] : row());
  }
  return points;
}

void ExpectSameResult(const KMeansResult& a, const KMeansResult& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  // Bit for bit, not within a tolerance.
  EXPECT_EQ(a.inertia, b.inertia);
  EXPECT_EQ(a.centroids, b.centroids);
  EXPECT_EQ(a.cluster_sizes, b.cluster_sizes);
}

TEST(KMeansTest, DistanceTieGoesToLowestCentroid) {
  // Three corners of the unit cube at pairwise Hamming distance 2: whichever
  // two k-means++ seeds, the third point is at the same exact distance from
  // both and must join cluster 0; the means then keep it there. A
  // highest-index tie rule would leave cluster 0 alone instead.
  const std::vector<FeatureVector> points{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  for (Engine engine : kAllEngines) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      KMeansOptions opts;
      opts.k = 2;
      opts.seed = seed;
      auto r = KMeansWithEngine(points, opts, engine);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->cluster_sizes, (std::vector<int>{2, 1}))
          << "engine " << static_cast<int>(engine) << " seed " << seed;
      EXPECT_EQ(r->inertia, 1.0);
      EXPECT_TRUE(r->converged);
    }
  }
}

TEST(KMeansTest, EmptyClusterIsRepairedAtFirstFarthestPoint) {
  // Two positions, three copies each, k = 3: k-means++ seeds both positions,
  // then draws the third seed uniformly (every weight is 0), a copy of one
  // of them. Its centroid loses every tie to the lower-indexed one, so
  // cluster 2 empties in the first update step and again in the second.
  // Every point then sits on its centroid, so all tie for farthest and the
  // first point is re-seeded, each time; the second iteration leaves the
  // inertia at 0 and stops.
  const FeatureVector p{0, 0, 0, 0};
  const FeatureVector q{1, 1, 1, 1};
  const std::vector<FeatureVector> points{p, p, p, q, q, q};
  for (Engine engine : kAllEngines) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      KMeansOptions opts;
      opts.k = 3;
      opts.seed = seed;
      auto r = KMeansWithEngine(points, opts, engine);
      ASSERT_TRUE(r.ok());
      const std::vector<int>& a = r->assignment;
      EXPECT_EQ(a[0], a[1]);
      EXPECT_EQ(a[0], a[2]);
      EXPECT_EQ(a[3], a[4]);
      EXPECT_EQ(a[3], a[5]);
      EXPECT_NE(a[0], a[3]);
      EXPECT_EQ(r->cluster_sizes[2], 0);
      EXPECT_EQ(r->centroids[2], p) << "engine " << static_cast<int>(engine)
                                    << " seed " << seed;
      EXPECT_EQ(r->iterations, 2);
      EXPECT_TRUE(r->converged);
      EXPECT_EQ(r->inertia, 0.0);
    }
  }
}

TEST(KMeansTest, ExactEvaluatorsAgreeBitForBit) {
  Rng rng(20240611);
  for (int problem = 0; problem < 60; ++problem) {
    // Mostly small problems, a few up to ~300 points or coordinates.
    const size_t n = 2 + rng.NextBounded(problem % 6 == 0 ? 299 : 60);
    const size_t dim = 1 + rng.NextBounded(problem % 5 == 0 ? 300 : 80);
    const size_t distinct = problem % 3 == 0 ? 1 + rng.NextBounded(6) : 0;
    const std::vector<FeatureVector> points =
        RandomBinary(n, dim, distinct, &rng);
    KMeansOptions opts;
    opts.k = 1 + static_cast<int>(rng.NextBounded(n));
    opts.num_restarts = 2;
    opts.seed = rng.NextUint64();
    auto pairwise = KMeansWithEngine(points, opts, Engine::kPairwise);
    auto counts = KMeansWithEngine(points, opts, Engine::kCounts);
    ASSERT_TRUE(pairwise.ok());
    ASSERT_TRUE(counts.ok());
    SCOPED_TRACE("problem " + std::to_string(problem) + ": n=" +
                 std::to_string(n) + " dim=" + std::to_string(dim) +
                 " k=" + std::to_string(opts.k));
    ExpectSameResult(*pairwise, *counts);
  }
}

TEST(KMeansTest, BinaryInputTakesTheExactEngine) {
  Rng rng(7);
  // Truth-vector shapes: few long rows (the attribute axis) and many short
  // ones (the object axis), and real-valued points for contrast.
  const std::vector<FeatureVector> wide = RandomBinary(124, 248, 0, &rng);
  const std::vector<FeatureVector> tall = RandomBinary(2000, 60, 0, &rng);
  KMeansOptions opts;
  opts.k = 8;
  EXPECT_EQ(kmeans_internal::ChooseEngine(wide, opts), Engine::kPairwise);
  EXPECT_EQ(kmeans_internal::ChooseEngine(tall, opts), Engine::kCounts);
  EXPECT_EQ(kmeans_internal::ChooseEngine(TwoBlobs(20, 3, 1), opts),
            Engine::kFloat);

  auto routed = KMeans(wide, opts);
  auto exact = KMeansWithEngine(wide, opts, Engine::kPairwise);
  ASSERT_TRUE(routed.ok());
  ASSERT_TRUE(exact.ok());
  ExpectSameResult(*routed, *exact);

  // In restart 7, iteration 3, point 22 is exactly 78/25 from two means;
  // double rounding puts it nearer the higher-indexed one, so the float
  // Lloyd ends on another partition. KMeans must give the exact answer.
  Rng tie_rng(8);
  const std::vector<FeatureVector> tied = RandomBinary(24, 16, 0, &tie_rng);
  KMeansOptions three;
  three.k = 3;
  auto tied_routed = KMeans(tied, three);
  auto tied_exact = KMeansWithEngine(tied, three, Engine::kPairwise);
  auto tied_float = KMeansWithEngine(tied, three, Engine::kFloat);
  ASSERT_TRUE(tied_routed.ok());
  ASSERT_TRUE(tied_exact.ok());
  ASSERT_TRUE(tied_float.ok());
  ExpectSameResult(*tied_routed, *tied_exact);
  EXPECT_NE(tied_routed->assignment, tied_float->assignment);

  // Real-valued input is refused by the exact engines.
  EXPECT_FALSE(
      KMeansWithEngine(TwoBlobs(5, 2, 1), opts, Engine::kPairwise).ok());
  EXPECT_FALSE(KMeansWithEngine(TwoBlobs(5, 2, 1), opts, Engine::kCounts).ok());
}

}  // namespace
}  // namespace tdac
