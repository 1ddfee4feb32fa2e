#include "clustering/kmeans.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/random.h"

namespace tdac {

using kmeans_internal::Engine;

namespace {

/// Lloyd iterations per restart that the evaluator cost model assumes.
constexpr double kAssumedIterations = 10.0;

/// 0/1 points packed 64 coordinates to a word.
class BitRows {
 public:
  /// Packs `points` (non-empty, one dimension); nullopt when a coordinate
  /// is neither 0 nor 1.
  static std::optional<BitRows> Pack(const std::vector<FeatureVector>& points) {
    BitRows rows;
    rows.dim_ = points[0].size();
    rows.words_ = (rows.dim_ + 63) / 64;
    rows.bits_.assign(points.size() * rows.words_, 0);
    rows.ones_.assign(points.size(), 0);
    bool binary = true;
    for (size_t i = 0; i < points.size() && binary; ++i) {
      const FeatureVector& p = points[i];
      for (size_t w = 0; w < rows.words_; ++w) {
        uint64_t word = 0;
        const size_t end = std::min(rows.dim_, 64 * (w + 1));
        for (size_t d = 64 * w; d < end; ++d) {
          const bool one = p[d] == 1.0;
          binary &= one || p[d] == 0.0;
          word |= static_cast<uint64_t>(one) << (d % 64);
        }
        rows.bits_[i * rows.words_ + w] = word;
        rows.ones_[i] += std::popcount(word);
      }
    }
    if (!binary) return std::nullopt;
    // Keeps every scaled distance below 2^62, so the exact comparisons'
    // cross products stay below 2^124.
    const double n = static_cast<double>(points.size());
    TDAC_CHECK(n * n * static_cast<double>(rows.dim_ + 1) < 0x1p62)
        << "KMeans: too many 0/1 points for exact distances";
    return rows;
  }

  size_t size() const { return ones_.size(); }
  size_t dim() const { return dim_; }
  const uint64_t* Row(size_t i) const { return &bits_[i * words_]; }
  size_t words() const { return words_; }
  int64_t Ones(size_t i) const { return ones_[i]; }

  int64_t Hamming(size_t i, size_t j) const {
    const uint64_t* a = Row(i);
    const uint64_t* b = Row(j);
    int64_t h = 0;
    for (size_t w = 0; w < words_; ++w) h += std::popcount(a[w] ^ b[w]);
    return h;
  }

 private:
  size_t dim_ = 0;
  size_t words_ = 0;
  std::vector<uint64_t> bits_;
  std::vector<int64_t> ones_;
};

/// The squared distance from a 0/1 point to the mean of m 0/1 points, held
/// exactly as scaled / m^2. A single point has m = 1, and scaled is then
/// the Hamming count.
struct ExactDistance {
  int64_t scaled = 0;   // m^2 * ||x - mean||^2, a non-negative integer
  int64_t squared = 1;  // m^2

  friend bool operator<(const ExactDistance& a, const ExactDistance& b) {
    using U128 = unsigned __int128;
    return static_cast<U128>(static_cast<uint64_t>(a.scaled)) *
               static_cast<uint64_t>(b.squared) <
           static_cast<U128>(static_cast<uint64_t>(b.scaled)) *
               static_cast<uint64_t>(a.squared);
  }
};

double AsDouble(double d) { return d; }
double AsDouble(const ExactDistance& d) {
  return static_cast<double>(d.scaled) / static_cast<double>(d.squared);
}

/// The double mean of each cluster of `labels` (values in [0, k)), formed
/// as the float Lloyd always has: summed in point order, then divided by
/// the count. An empty cluster's mean stays all zero.
std::vector<FeatureVector> Means(const std::vector<FeatureVector>& points,
                                 const std::vector<int>& labels, int k) {
  std::vector<FeatureVector> means(static_cast<size_t>(k),
                                   FeatureVector(points[0].size(), 0.0));
  std::vector<int> counts(static_cast<size_t>(k), 0);
  for (size_t i = 0; i < points.size(); ++i) {
    const auto c = static_cast<size_t>(labels[i]);
    FeatureVector& sum = means[c];
    for (size_t d = 0; d < sum.size(); ++d) sum[d] += points[i][d];
    ++counts[c];
  }
  for (size_t c = 0; c < means.size(); ++c) {
    if (counts[c] == 0) continue;
    for (double& x : means[c]) x /= counts[c];
  }
  return means;
}

// An evaluator gives the squared distance from point i to a centroid that
// sits on point p (ToPoint) or on the mean of the points labelled c at the
// last Refresh (ToMean, for non-empty c). Its Distance type is ordered by
// operator< and read as a double through AsDouble.

/// Double centroids: the float Lloyd, for any input.
class FloatEvaluator {
 public:
  using Distance = double;

  FloatEvaluator(const std::vector<FeatureVector>& points, int k)
      : points_(points), k_(k) {}

  double ToPoint(size_t i, size_t p) const {
    return SquaredEuclideanDistance(points_[i], points_[p]);
  }
  double ToMean(size_t i, int c) const {
    return SquaredEuclideanDistance(points_[i],
                                    means_[static_cast<size_t>(c)]);
  }

  void Refresh(const std::vector<int>& labels) {
    means_ = Means(points_, labels, k_);
  }

  /// Hands over the means of the last Refresh. The next restart reads only
  /// its seed points until its first Refresh forms new ones.
  std::vector<FeatureVector> TakeMeans() { return std::move(means_); }

 private:
  const std::vector<FeatureVector>& points_;
  int k_;
  std::vector<FeatureVector> means_;
};

/// Exact distances from one n x n Hamming count matrix H. With
/// A_x = sum_{j in C} H(x, j) and B_C = sum_{j in C} A_j, which counts
/// every ordered pair of C and so is even,
/// |C|^2 * ||x - mean(C)||^2 = |C| * A_x - B_C / 2.
class PairwiseEvaluator {
 public:
  using Distance = ExactDistance;

  PairwiseEvaluator(const BitRows& rows, int k)
      : n_(rows.size()),
        k_(static_cast<size_t>(k)),
        hamming_(n_ * n_, 0),
        sums_(n_ * k_),
        half_pair_sums_(k_),
        sizes_(k_) {
    for (size_t i = 0; i < n_; ++i) {
      for (size_t j = i + 1; j < n_; ++j) {
        const auto h = static_cast<int32_t>(rows.Hamming(i, j));
        hamming_[i * n_ + j] = h;
        hamming_[j * n_ + i] = h;
      }
    }
  }

  Distance ToPoint(size_t i, size_t p) const {
    return {hamming_[i * n_ + p], 1};
  }
  Distance ToMean(size_t i, int c) const {
    const auto cc = static_cast<size_t>(c);
    const int64_t m = sizes_[cc];
    return {m * sums_[i * k_ + cc] - half_pair_sums_[cc], m * m};
  }

  void Refresh(const std::vector<int>& labels) {
    std::ranges::fill(sums_, 0);
    for (size_t i = 0; i < n_; ++i) {
      const int32_t* h = &hamming_[i * n_];
      int64_t* a = &sums_[i * k_];
      for (size_t j = 0; j < n_; ++j) a[labels[j]] += h[j];
    }
    std::ranges::fill(half_pair_sums_, 0);
    std::ranges::fill(sizes_, 0);
    for (size_t j = 0; j < n_; ++j) {
      const auto c = static_cast<size_t>(labels[j]);
      ++sizes_[c];
      half_pair_sums_[c] += sums_[j * k_ + c];
    }
    for (int64_t& b : half_pair_sums_) b /= 2;
  }

 private:
  size_t n_;
  size_t k_;
  // H, row-major.
  std::vector<int32_t> hamming_;
  // A_x per point and cluster, point-major.
  std::vector<int64_t> sums_;
  // B_C / 2 per cluster.
  std::vector<int64_t> half_pair_sums_;
  std::vector<int64_t> sizes_;
};

/// Exact distances from per-cluster set-bit counts. With cnt_C[d] the
/// members of C whose bit d is set and Q_C = sum_d cnt_C[d]^2,
/// |C|^2 * ||x - mean(C)||^2 = sum_d (|C| * x_d - cnt_C[d])^2
///                           = Q_C + |C|^2 * |x| - 2 |C| sum_{d in x} cnt_C[d].
class CountEvaluator {
 public:
  using Distance = ExactDistance;

  CountEvaluator(const BitRows& rows, int k)
      : rows_(rows),
        counts_(static_cast<size_t>(k) * rows.dim()),
        squares_(static_cast<size_t>(k)),
        sizes_(static_cast<size_t>(k)) {}

  Distance ToPoint(size_t i, size_t p) const {
    return {rows_.Hamming(i, p), 1};
  }
  Distance ToMean(size_t i, int c) const {
    const auto cc = static_cast<size_t>(c);
    const int32_t* cnt = &counts_[cc * rows_.dim()];
    const uint64_t* row = rows_.Row(i);
    int64_t dot = 0;
    for (size_t w = 0; w < rows_.words(); ++w) {
      for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        dot += cnt[w * 64 + static_cast<size_t>(std::countr_zero(bits))];
      }
    }
    const int64_t m = sizes_[cc];
    return {squares_[cc] + m * m * rows_.Ones(i) - 2 * m * dot, m * m};
  }

  void Refresh(const std::vector<int>& labels) {
    std::ranges::fill(counts_, 0);
    std::ranges::fill(sizes_, 0);
    for (size_t i = 0; i < rows_.size(); ++i) {
      const auto c = static_cast<size_t>(labels[i]);
      ++sizes_[c];
      int32_t* cnt = &counts_[c * rows_.dim()];
      const uint64_t* row = rows_.Row(i);
      for (size_t w = 0; w < rows_.words(); ++w) {
        for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          ++cnt[w * 64 + static_cast<size_t>(std::countr_zero(bits))];
        }
      }
    }
    for (size_t c = 0; c < squares_.size(); ++c) {
      const int32_t* cnt = &counts_[c * rows_.dim()];
      int64_t q = 0;
      for (size_t d = 0; d < rows_.dim(); ++d) {
        q += static_cast<int64_t>(cnt[d]) * cnt[d];
      }
      squares_[c] = q;
    }
  }

 private:
  const BitRows& rows_;
  // cnt_C per cluster, cluster-major.
  std::vector<int32_t> counts_;
  // Q_C per cluster.
  std::vector<int64_t> squares_;
  std::vector<int64_t> sizes_;
};

/// k-means++ seeding: first centroid uniform, each next centroid drawn with
/// probability proportional to squared distance to the nearest chosen one.
template <typename Evaluator>
std::vector<int64_t> SeedPlusPlus(const Evaluator& eval, size_t n, int k,
                                  Rng* rng) {
  std::vector<int64_t> seeds;
  seeds.reserve(static_cast<size_t>(k));
  seeds.push_back(static_cast<int64_t>(rng->NextBounded(n)));
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  while (static_cast<int>(seeds.size()) < k) {
    const auto last = static_cast<size_t>(seeds.back());
    for (size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], AsDouble(eval.ToPoint(i, last)));
    }
    seeds.push_back(static_cast<int64_t>(rng->NextWeighted(d2)));
  }
  return seeds;
}

struct LloydOutcome {
  std::vector<int> assignment;
  /// Centroid c sits on point point_of[c] when that is >= 0 (a k-means++
  /// seed, or where an empty-cluster repair re-seeded it); otherwise it is
  /// the mean of the points assigned to c.
  std::vector<int64_t> point_of;
  /// Filled after the loop: point_of[c], or the double mean of cluster c.
  std::vector<FeatureVector> centroids;
  double inertia = std::numeric_limits<double>::infinity();
  int iterations = 0;
  bool converged = false;
};

template <typename Evaluator>
LloydOutcome RunLloyd(Evaluator& eval, size_t n, int k,
                      const KMeansOptions& options, Rng* rng) {
  using Distance = typename Evaluator::Distance;
  LloydOutcome out;
  out.point_of = SeedPlusPlus(eval, n, k, rng);
  out.assignment.assign(n, -1);
  auto to_centroid = [&](size_t i, int c) {
    const int64_t p = out.point_of[static_cast<size_t>(c)];
    return p >= 0 ? eval.ToPoint(i, static_cast<size_t>(p)) : eval.ToMean(i, c);
  };
  // Each point's distance to its centroid in the last assignment step.
  std::vector<Distance> own(n);
  std::vector<int> sizes(static_cast<size_t>(k));
  double prev_inertia = std::numeric_limits<double>::infinity();

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    out.iterations = iter + 1;
    // Assignment step.
    bool changed = false;
    double inertia = 0.0;
    for (size_t i = 0; i < n; ++i) {
      int best = 0;
      Distance best_d = to_centroid(i, 0);
      for (int c = 1; c < k; ++c) {
        const Distance d = to_centroid(i, c);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (out.assignment[i] != best) {
        out.assignment[i] = best;
        changed = true;
      }
      own[i] = best_d;
      inertia += AsDouble(best_d);
    }

    // Update step.
    eval.Refresh(out.assignment);
    std::ranges::fill(sizes, 0);
    for (int a : out.assignment) ++sizes[static_cast<size_t>(a)];
    for (int c = 0; c < k; ++c) {
      if (sizes[static_cast<size_t>(c)] > 0) {
        out.point_of[static_cast<size_t>(c)] = -1;
        continue;
      }
      // Empty-cluster repair: re-seed at the point farthest from its
      // centroid. Clusters below c are on their new means already, those
      // above c still on the centroids of the assignment step.
      size_t farthest = 0;
      Distance far_d{};
      for (size_t i = 0; i < n; ++i) {
        const int a = out.assignment[i];
        const Distance d = a < c ? eval.ToMean(i, a) : own[i];
        if (i == 0 || far_d < d) {
          far_d = d;
          farthest = i;
        }
      }
      out.point_of[static_cast<size_t>(c)] = static_cast<int64_t>(farthest);
      changed = true;
    }

    if (!changed) {
      out.converged = true;
      break;
    }
    if (prev_inertia - inertia >= 0 &&
        prev_inertia - inertia < options.tolerance && iter > 0) {
      out.converged = true;
      break;
    }
    prev_inertia = inertia;
  }
  return out;
}

/// The double means a restart ends on (see Means); the float evaluator's
/// last update step has formed them from the same labels already.
template <typename Evaluator>
std::vector<FeatureVector> FinalMeans(Evaluator& /*eval*/,
                                      const std::vector<FeatureVector>& points,
                                      const std::vector<int>& labels, int k) {
  return Means(points, labels, k);
}
std::vector<FeatureVector> FinalMeans(
    FloatEvaluator& eval, const std::vector<FeatureVector>& /*points*/,
    const std::vector<int>& /*labels*/, int /*k*/) {
  return eval.TakeMeans();
}

template <typename Evaluator>
KMeansResult RunRestarts(const std::vector<FeatureVector>& points,
                         const KMeansOptions& options, Evaluator eval) {
  const int k = options.k;
  const int restarts = std::max(1, options.num_restarts);
  LloydOutcome best;
  // Where each scored restart ended. A restart that ends where an earlier
  // one did has its centroids and inertia, and a later restart wins only
  // with a strictly lower inertia, so it is not scored again.
  std::vector<std::pair<std::vector<int>, std::vector<int64_t>>> ends;
  for (int r = 0; r < restarts; ++r) {
    Rng rng(options.seed + static_cast<uint64_t>(r));
    LloydOutcome attempt = RunLloyd(eval, points.size(), k, options, &rng);
    if (std::ranges::any_of(ends, [&](const auto& end) {
          return end.first == attempt.assignment &&
                 end.second == attempt.point_of;
        })) {
      continue;
    }
    ends.emplace_back(attempt.assignment, attempt.point_of);
    // The restart's inertia as the float Lloyd computes it, in double from
    // the final means and in point order, so that every engine picks the
    // same restart wherever their Lloyd runs agree.
    attempt.centroids = FinalMeans(eval, points, attempt.assignment, k);
    for (size_t c = 0; c < attempt.centroids.size(); ++c) {
      const int64_t p = attempt.point_of[c];
      if (p >= 0) attempt.centroids[c] = points[static_cast<size_t>(p)];
    }
    attempt.inertia = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      attempt.inertia += SquaredEuclideanDistance(
          points[i],
          attempt.centroids[static_cast<size_t>(attempt.assignment[i])]);
    }
    if (attempt.inertia < best.inertia) best = std::move(attempt);
  }

  KMeansResult result;
  result.assignment = std::move(best.assignment);
  result.centroids = std::move(best.centroids);
  result.inertia = best.inertia;
  result.iterations = best.iterations;
  result.converged = best.converged;
  result.cluster_sizes.assign(static_cast<size_t>(k), 0);
  for (int a : result.assignment) {
    ++result.cluster_sizes[static_cast<size_t>(a)];
  }
  return result;
}

Status CheckInput(const std::vector<FeatureVector>& points,
                  const KMeansOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("KMeans: no points");
  }
  if (options.k < 1 || options.k > static_cast<int>(points.size())) {
    return Status::InvalidArgument(
        "KMeans: k must be in [1, #points], got k=" +
        std::to_string(options.k) + " with " + std::to_string(points.size()) +
        " points");
  }
  if (options.max_iterations < 1) {
    return Status::InvalidArgument(
        "KMeans: max_iterations must be at least 1, got " +
        std::to_string(options.max_iterations));
  }
  const size_t dim = points[0].size();
  for (const auto& p : points) {
    if (p.size() != dim) {
      return Status::InvalidArgument("KMeans: inconsistent point dimensions");
    }
  }
  if (dim == 0) {
    return Status::InvalidArgument("KMeans: zero-dimensional points");
  }
  return Status::OK();
}

/// The cost model: the pairwise evaluator makes one pass over its n x n
/// matrix per iteration after ~n^2/2 * dim/64 popcounts to build it, the
/// count evaluator compares every point with every cluster's counts.
Engine CheaperExactEngine(const BitRows& rows, const KMeansOptions& options) {
  if (rows.dim() > static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return Engine::kCounts;  // the count matrix holds int32
  }
  const double n = static_cast<double>(rows.size());
  const double dim = static_cast<double>(rows.dim());
  const double iterations =
      kAssumedIterations * std::max(1, options.num_restarts);
  const double pairwise = iterations * n * n + n * n * dim / 128.0;
  const double counts = iterations * n * options.k * dim;
  return pairwise < counts ? Engine::kPairwise : Engine::kCounts;
}

/// KMeans's routing: the exact engines for 0/1 points, else the float one.
Engine ChooseFor(const std::optional<BitRows>& rows,
                 const KMeansOptions& options) {
  return rows ? CheaperExactEngine(*rows, options) : Engine::kFloat;
}

/// Runs `engine`; callers pick an exact one only when `rows` holds the
/// packed points.
KMeansResult Run(const std::vector<FeatureVector>& points,
                 const KMeansOptions& options, Engine engine,
                 const std::optional<BitRows>& rows) {
  if (rows && engine == Engine::kPairwise) {
    return RunRestarts(points, options, PairwiseEvaluator(*rows, options.k));
  }
  if (rows && engine == Engine::kCounts) {
    return RunRestarts(points, options, CountEvaluator(*rows, options.k));
  }
  return RunRestarts(points, options, FloatEvaluator(points, options.k));
}

}  // namespace

Result<KMeansResult> KMeans(const std::vector<FeatureVector>& points,
                            const KMeansOptions& options) {
  TDAC_RETURN_NOT_OK(CheckInput(points, options));
  const std::optional<BitRows> rows = BitRows::Pack(points);
  return Run(points, options, ChooseFor(rows, options), rows);
}

namespace kmeans_internal {

Engine ChooseEngine(const std::vector<FeatureVector>& points,
                    const KMeansOptions& options) {
  if (!CheckInput(points, options).ok()) return Engine::kFloat;
  return ChooseFor(BitRows::Pack(points), options);
}

Result<KMeansResult> KMeansWithEngine(const std::vector<FeatureVector>& points,
                                      const KMeansOptions& options,
                                      Engine engine) {
  TDAC_RETURN_NOT_OK(CheckInput(points, options));
  const std::optional<BitRows> rows = BitRows::Pack(points);
  if (engine != Engine::kFloat && !rows) {
    return Status::InvalidArgument(
        "KMeans: the exact engines need coordinates that are all 0 or 1");
  }
  return Run(points, options, engine, rows);
}

}  // namespace kmeans_internal

}  // namespace tdac
