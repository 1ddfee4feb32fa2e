#ifndef TDAC_TDAC_TDOC_H_
#define TDAC_TDAC_TDOC_H_

#include <string>
#include <utility>
#include <vector>

#include "clustering/kmeans.h"
#include "clustering/silhouette.h"
#include "td/truth_discovery.h"
#include "tdac/tdac.h"

namespace tdac {

/// \brief Options for TD-OC.
struct TdocOptions {
  /// The base truth-discovery algorithm F. Required; not owned.
  const TruthDiscovery* base = nullptr;

  /// k-means configuration; `k` is overwritten during the sweep.
  KMeansOptions kmeans;

  /// Sweep bounds over the number of object clusters. Objects are usually
  /// plentiful (hundreds+), so unlike TD-AC's attribute sweep the default
  /// upper bound is capped rather than |O| - 1.
  int min_k = 2;
  int max_k = 8;

  /// Threads for the pass (TdacOptions::threads), its base runs included:
  /// 0 keeps the caller's run width, which outside any RunWidthScope is
  /// the process default (`TDAC_THREADS` env override, else hardware
  /// concurrency); 1 forces the exact serial path. Results are
  /// bit-identical at every thread count.
  int threads = 0;

  /// Durable checkpoint/resume (docs/checkpointing.md). Not owned; null
  /// disables. Slots: `<checkpoint_prefix>.r0.{reference,sweep,groups}`.
  /// Only clean (un-tripped) state is persisted, so a resumed run is
  /// bit-identical to an uninterrupted one.
  Checkpointer* checkpointer = nullptr;
  std::string checkpoint_prefix = "tdoc";
};

/// \brief Extended output of a TD-OC run.
struct TdocReport {
  /// The chosen object groups (each sorted ascending).
  std::vector<std::vector<ObjectId>> groups;

  int chosen_k = 0;
  double silhouette = 0.0;
  std::vector<std::pair<int, double>> silhouette_by_k;
  bool fell_back_to_base = false;

  TruthDiscoveryResult result;
};

/// \brief TD-OC: the object-axis analogue of TD-AC, implementing the
/// conclusion's perspective of comparing against object-partitioning
/// approaches (Yang, Bai & Liu 2019, the paper's reference [13]).
///
/// Each object gets a binary truth vector over (attribute, source) pairs
/// (1 where the source's claim matches the reference truth); objects are
/// clustered by k-means + silhouette and the base algorithm runs per object
/// cluster. This helps when sources' reliability correlates across groups
/// of *objects* (e.g. geographic regions) rather than attributes — and does
/// nothing for the attribute-correlated setting TD-AC targets, which the
/// `bench_partitioning_axes` bench demonstrates.
///
/// It is TD-AC's pass run on the object axis: the same reference run,
/// parallel sweep, batched checkpoints, group runs and trust merge, on
/// `TdocOptions::threads` threads. Results are bit-identical at every
/// thread count.
class Tdoc : public TruthDiscovery {
 public:
  explicit Tdoc(TdocOptions options);

  std::string_view name() const override { return pass_.name(); }

  [[nodiscard]]
  Result<TdocReport> DiscoverWithReport(const DatasetLike& data) const;

  /// Guarded variant: checks the guard between sweep candidates and object
  /// groups; a tripped run returns best-so-far with missing objects filled
  /// from the reference truth.
  [[nodiscard]]
  Result<TdocReport> DiscoverWithReport(const DatasetLike& data,
                                        const RunGuard& guard) const;

  const TdocOptions& options() const { return options_; }

 protected:
  [[nodiscard]]
  Result<TruthDiscoveryResult> DiscoverGuarded(
      const DatasetLike& data, const RunGuard& guard) const override;

 private:
  TdocOptions options_;
  Tdac pass_;  // object-axis
};

}  // namespace tdac

#endif  // TDAC_TDAC_TDOC_H_
