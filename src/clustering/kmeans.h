#ifndef TDAC_CLUSTERING_KMEANS_H_
#define TDAC_CLUSTERING_KMEANS_H_

#include <vector>

#include "clustering/distance.h"
#include "common/result.h"

namespace tdac {

/// \brief Options for Lloyd's k-means with k-means++ seeding.
struct KMeansOptions {
  /// Number of clusters; must satisfy 1 <= k <= #points.
  int k = 2;

  /// Lloyd iteration cap per restart; must be at least 1.
  int max_iterations = 100;

  /// Independent seeded restarts; the run with the lowest inertia wins.
  int num_restarts = 8;

  /// RNG seed for k-means++ seeding (restart r uses seed + r).
  uint64_t seed = 42;

  /// Early stop when inertia improves by less than this between iterations.
  double tolerance = 1e-9;
};

/// \brief Result of a k-means run.
struct KMeansResult {
  /// Cluster index in [0, k) per input point.
  std::vector<int> assignment;

  /// Final centroids: the mean of each cluster's points, in double, or the
  /// point an empty-cluster repair last re-seeded the cluster at.
  std::vector<FeatureVector> centroids;

  /// Sum over points of squared Euclidean distance to their centroid
  /// (the paper's within-cluster "Inertia" objective, Eq. 3), computed in
  /// double from `centroids` and summed in point order.
  double inertia = 0.0;

  /// Lloyd iterations of the winning restart.
  int iterations = 0;

  /// Whether the winning restart's Lloyd loop stopped on its own
  /// (assignment fixpoint or inertia tolerance) rather than hitting
  /// max_iterations with the assignment still moving.
  bool converged = false;

  /// Points per cluster.
  std::vector<int> cluster_sizes;
};

/// Runs k-means over `points`. All points must share one dimension.
/// Deterministic for a fixed (points, options) pair.
///
/// Every restart runs one Lloyd loop: k-means++ seeding, then assignment
/// and update steps until the assignment stops changing, the inertia
/// improves by less than `tolerance`, or `max_iterations` is reached.
///  - Assignment: each point joins its nearest centroid; on a distance tie
///    the lowest centroid index wins.
///  - Update: each non-empty cluster's centroid becomes its mean, in
///    cluster order. An empty cluster c is re-seeded at the point farthest
///    from its own centroid at that moment (clusters below c already on
///    their new means, clusters above c still on their old centroids); the
///    first farthest point in point order wins.
///  - Restart choice: a later restart wins only with a strictly lower
///    final inertia (KMeansResult::inertia). A restart that ends on the
///    assignment and centroids of an earlier one has its inertia, so it
///    cannot win and is not scored again.
///
/// Points whose coordinates are all 0 or 1 (TD-AC's and TD-OC's truth
/// vectors) run this loop exactly, on integer Hamming counts: the squared
/// distance from a point to a cluster mean is an exact rational, so
/// assignment and repair compare exact values, and the inertia the
/// tolerance test reads is each point's exact distance converted to double.
/// Seeding weights are the same integer counts as in double. Two
/// evaluators give the same exact distances; a cost model on the number of
/// points, k and the row width picks one:
///  - pairwise: one n x n Hamming count matrix per call, and
///    |C|^2 * ||x - mean(C)||^2 = |C| * sum_{j in C} H(x, j)
///    - (1/2) * sum_{j, l in C} H(j, l),
///    one O(n^2) pass per iteration (few points with long rows: the
///    attribute axis);
///  - counts: per-cluster set-bit counts cnt_C, and
///    |C|^2 * ||x - mean(C)||^2 = sum_d (|C| * x_d - cnt_C[d])^2,
///    O(n * k * row) per iteration with no n x n state (many short rows:
///    the object axis).
/// Any other input runs the loop on double centroids.
[[nodiscard]]
Result<KMeansResult> KMeans(const std::vector<FeatureVector>& points,
                            const KMeansOptions& options);

namespace kmeans_internal {

/// The engines KMeans chooses between.
enum class Engine {
  kFloat,     // double centroids, for any input
  kPairwise,  // exact, pairwise Hamming count matrix (0/1 input only)
  kCounts,    // exact, per-cluster set-bit counts (0/1 input only)
};

/// The engine KMeans(points, options) runs.
Engine ChooseEngine(const std::vector<FeatureVector>& points,
                    const KMeansOptions& options);

/// KMeans on a forced engine: lets tests compare the engines on one input.
/// The exact engines refuse points with a coordinate other than 0 or 1.
[[nodiscard]]
Result<KMeansResult> KMeansWithEngine(const std::vector<FeatureVector>& points,
                                      const KMeansOptions& options,
                                      Engine engine);

}  // namespace kmeans_internal

}  // namespace tdac

#endif  // TDAC_CLUSTERING_KMEANS_H_
