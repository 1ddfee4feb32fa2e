#ifndef TDAC_TDAC_TDAC_H_
#define TDAC_TDAC_TDAC_H_

#include <string>
#include <utility>
#include <vector>

#include "clustering/hierarchical.h"
#include "clustering/kmeans.h"
#include "clustering/silhouette.h"
#include "data/dataset_view.h"
#include "partition/attribute_partition.h"
#include "td/truth_discovery.h"
#include "tdac/truth_vectors.h"

namespace tdac {

class Checkpointer;

/// \brief How TD-AC clusters the attribute truth vectors during the k
/// sweep.
enum class ClusteringBackend {
  /// k-means with k-means++ seeding — the paper's choice.
  kKMeans,
  /// Agglomerative average-linkage clustering: the merge tree is built once
  /// and cut at every k. Deterministic (no seeding) and often sharper on
  /// small attribute counts; exposed for the ablation benches.
  kAgglomerative,
};

/// \brief Options for TD-AC (the paper's Algorithm 1).
struct TdacOptions {
  /// The base truth-discovery algorithm F. Required; not owned.
  const TruthDiscovery* base = nullptr;

  /// Clustering backend used in the sweep.
  ClusteringBackend backend = ClusteringBackend::kKMeans;

  /// k-means configuration; `k` is overwritten during the sweep.
  KMeansOptions kmeans;

  /// Linkage used when backend is kAgglomerative.
  Linkage linkage = Linkage::kAverage;

  /// Distance used by the silhouette index (the paper uses Hamming on the
  /// binary truth vectors).
  DistanceMetric silhouette_metric = DistanceMetric::kHamming;

  /// Missing-value extension (paper conclusion, perspective (i)): silhouette
  /// distances compare only coordinates where both attributes have an
  /// observed claim, rescaled to the full dimension.
  bool sparse_aware = false;

  /// Parallel-computation extension (paper conclusion, perspective (ii)):
  /// the distance matrix rows, the k sweep, the per-group base runs and
  /// the base runs' own item blocks fan out over the shared thread pool.
  /// This is the pass's run width (RunWidthScope): the reference run takes
  /// it, and each group run the width of the groups loop. 0 keeps the
  /// caller's width, which outside any scope is the process default
  /// (`TDAC_THREADS` env override, else hardware concurrency); 1 forces
  /// the exact serial path. Results are bit-identical at every thread
  /// count: each parallel unit is seeded independently and reduced in
  /// deterministic (k / group / block) order.
  int threads = 0;

  /// Sweep bounds; the paper sweeps k in [2, |A| - 1]. max_k <= 0 means
  /// |A| - 1.
  int min_k = 2;
  int max_k = 0;

  /// Extension: bootstrap rounds. After the first pass, the truth vectors
  /// can be rebuilt against TD-AC's own (better) predictions instead of the
  /// base algorithm's global reference truth, the attributes re-clustered,
  /// and the per-group discovery re-run — up to this many extra rounds,
  /// stopping early once the partition stabilizes. 0 reproduces the
  /// paper's single-pass Algorithm 1.
  int refinement_rounds = 0;

  /// Durable checkpoint/resume (docs/checkpointing.md). Not owned; null
  /// (or a disabled Checkpointer) runs exactly as before this layer
  /// existed. Slots are namespaced `<checkpoint_prefix>.r<round>.{reference,
  /// sweep,groups}`; only clean (un-tripped) state is ever persisted, so a
  /// resumed run is bit-identical to an uninterrupted one.
  Checkpointer* checkpointer = nullptr;
  std::string checkpoint_prefix = "tdac";
};

/// \brief Extended output of a TD-AC run.
struct TdacReport {
  /// The optimal partition found by k-means + silhouette.
  AttributePartition partition;

  /// Chosen k (number of clusters), and its silhouette value CS(P).
  int chosen_k = 0;
  double silhouette = 0.0;

  /// Silhouette value per examined k, in sweep order.
  std::vector<std::pair<int, double>> silhouette_by_k;

  /// Whether the attribute count was too small to cluster (the base
  /// algorithm then ran on the unpartitioned dataset).
  bool fell_back_to_base = false;

  /// How many k-means sweep candidates hit max_iterations without
  /// converging (a warning is logged when this is non-zero; the silhouette
  /// still scores whatever clustering the cap produced).
  int sweep_kmeans_non_converged = 0;

  /// The aggregated truth-discovery result.
  TruthDiscoveryResult result;
};

/// \brief TD-AC: Truth Discovery with Attribute Clustering.
///
/// Algorithm 1 of the paper: (i) run the base algorithm once to obtain a
/// reference truth and build attribute truth vectors (Eq. 1); (ii) sweep
/// k in [2, |A|-1], clustering the vectors with k-means and scoring each
/// clustering with the silhouette index (Eqs. 5-7); (iii) run the base
/// algorithm independently on each cluster of the best-scoring partition
/// and merge the partial results.
///
/// Datasets with fewer than 3 active attributes cannot be swept (the
/// paper's loop is empty); TD-AC then degrades gracefully to the base
/// algorithm on the whole dataset.
class Tdac : public TruthDiscovery {
 public:
  explicit Tdac(TdacOptions options);

  std::string_view name() const override { return name_; }

  /// Like Discover but also returns the chosen partition and the
  /// silhouette sweep.
  [[nodiscard]]
  Result<TdacReport> DiscoverWithReport(const DatasetLike& data) const;

  /// Guarded variant: the guard is threaded through the reference base
  /// run, the k sweep, every per-group base run, and the refinement
  /// rounds. On a trip the report carries the most complete result
  /// available (missing groups filled from the reference truth) with
  /// `result.stop_reason` naming the trip.
  [[nodiscard]]
  Result<TdacReport> DiscoverWithReport(const DatasetLike& data,
                                        const RunGuard& guard) const;

  const TdacOptions& options() const { return options_; }

 protected:
  [[nodiscard]]
  Result<TruthDiscoveryResult> DiscoverGuarded(
      const DatasetLike& data, const RunGuard& guard) const override;

 private:
  /// TD-OC (tdac/tdoc.h) runs this same pipeline on the object axis.
  friend class Tdoc;
  Tdac(TdacOptions options, PartitionAxis axis);

  /// One pass of Algorithm 1 over the items of `axis_`. With
  /// `reference == nullptr` the reference truth comes from running the base
  /// algorithm on the whole dataset (the paper's buildTruthVectors);
  /// otherwise the supplied predictions are used (refinement rounds). Group
  /// restrictions are zero-copy views served by `cache`, which is shared
  /// across refinement rounds so a re-derived group never rebuilds its
  /// view. `round` namespaces the checkpoint slots (refinement round
  /// number; 0 for the first pass). On the object axis the report's
  /// `partition` holds object ids.
  [[nodiscard]]
  Result<TdacReport> RunPass(const DatasetLike& data, RestrictionCache* cache,
                             const Predictions* reference,
                             const RunGuard& guard, int round) const;

  TdacOptions options_;
  PartitionAxis axis_;
  std::string name_;
};

}  // namespace tdac

#endif  // TDAC_TDAC_TDAC_H_
