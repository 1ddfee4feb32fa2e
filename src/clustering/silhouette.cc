#include "clustering/silhouette.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/math_util.h"

namespace tdac {

Status CheckDistanceMatrix(const std::vector<std::vector<double>>& distances) {
  const size_t n = distances.size();
  if (n == 0) return Status::InvalidArgument("Silhouette: no points");
  for (const auto& row : distances) {
    if (row.size() != n) {
      return Status::InvalidArgument("Silhouette: distance matrix not square");
    }
  }
  // A single NaN/inf/negative cell would otherwise propagate silently into
  // every downstream score (and ArgMax comparisons over NaN are
  // order-dependent), so a malformed matrix is refused outright. Symmetry
  // is part of the same contract: a(i) and b(i) read row i only, so an
  // asymmetric matrix would score the same partition differently depending
  // on which point of a pair asks.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double d = distances[i][j];
      if (!std::isfinite(d) || d < 0.0) {
        return Status::InvalidArgument(
            "Silhouette: distances must be finite and non-negative");
      }
      if (distances[j][i] != d) {
        return Status::InvalidArgument(
            "Silhouette: distance matrix must be symmetric");
      }
    }
  }
  return Status::OK();
}

Result<SilhouetteResult> SilhouetteFromCheckedDistances(
    const std::vector<std::vector<double>>& distances,
    const std::vector<int>& assignment, int k) {
  const size_t n = distances.size();
  if (assignment.size() != n) {
    return Status::InvalidArgument("Silhouette: assignment size mismatch");
  }
  if (k < 2) {
    return Status::InvalidArgument(
        "Silhouette requires k >= 2 (separation is undefined otherwise)");
  }
  std::vector<int> sizes(static_cast<size_t>(k), 0);
  for (int a : assignment) {
    if (a < 0 || a >= k) {
      return Status::InvalidArgument("Silhouette: assignment out of range");
    }
    ++sizes[static_cast<size_t>(a)];
  }
  for (int c = 0; c < k; ++c) {
    if (sizes[static_cast<size_t>(c)] == 0) {
      return Status::InvalidArgument("Silhouette: cluster " +
                                     std::to_string(c) + " is empty");
    }
  }

  SilhouetteResult result;
  result.point_scores.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const int own = assignment[i];
    if (sizes[static_cast<size_t>(own)] == 1) {
      result.point_scores[i] = 0.0;  // singleton convention
      continue;
    }
    // Mean distance from point i to every cluster.
    std::vector<double> mean_to(static_cast<size_t>(k), 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      mean_to[static_cast<size_t>(assignment[j])] += distances[i][j];
    }
    double alpha = mean_to[static_cast<size_t>(own)] /
                   static_cast<double>(sizes[static_cast<size_t>(own)] - 1);
    double beta = std::numeric_limits<double>::infinity();
    for (int c = 0; c < k; ++c) {
      if (c == own) continue;
      beta = std::min(beta,
                      mean_to[static_cast<size_t>(c)] /
                          static_cast<double>(sizes[static_cast<size_t>(c)]));
    }
    double denom = std::max(alpha, beta);
    result.point_scores[i] = denom > 0 ? (beta - alpha) / denom : 0.0;
  }

  result.cluster_scores.assign(static_cast<size_t>(k), 0.0);
  for (size_t i = 0; i < n; ++i) {
    result.cluster_scores[static_cast<size_t>(assignment[i])] +=
        result.point_scores[i];
  }
  for (int c = 0; c < k; ++c) {
    result.cluster_scores[static_cast<size_t>(c)] /=
        static_cast<double>(sizes[static_cast<size_t>(c)]);
  }
  result.partition_score = Mean(result.cluster_scores);
  result.mean_point_score = Mean(result.point_scores);
  return result;
}

Result<SilhouetteResult> SilhouetteFromDistances(
    const std::vector<std::vector<double>>& distances,
    const std::vector<int>& assignment, int k) {
  TDAC_RETURN_NOT_OK(CheckDistanceMatrix(distances));
  return SilhouetteFromCheckedDistances(distances, assignment, k);
}

Result<SilhouetteResult> Silhouette(const std::vector<FeatureVector>& points,
                                    const std::vector<int>& assignment, int k,
                                    DistanceMetric metric) {
  const size_t n = points.size();
  if (n == 0) return Status::InvalidArgument("Silhouette: no points");
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double d = Distance(metric, points[i], points[j]);
      dist[i][j] = d;
      dist[j][i] = d;
    }
  }
  return SilhouetteFromDistances(dist, assignment, k);
}

}  // namespace tdac
