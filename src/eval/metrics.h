#ifndef TDAC_EVAL_METRICS_H_
#define TDAC_EVAL_METRICS_H_

#include <cstddef>

#include "data/dataset_like.h"
#include "data/ground_truth.h"
#include "data/predictions.h"

namespace tdac {

/// \brief Claim-level confusion counts.
///
/// Every claim is classified twice: *predicted positive* when its value
/// equals the algorithm's elected truth for its data item, and *actually
/// positive* when it equals the gold truth. Claims on items missing from
/// either the prediction or the gold truth are skipped (and counted).
struct ConfusionCounts {
  size_t tp = 0;
  size_t fp = 0;
  size_t tn = 0;
  size_t fn = 0;
  size_t skipped_claims = 0;

  size_t total() const { return tp + fp + tn + fn; }
};

/// \brief The paper's performance columns.
struct PerformanceMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double accuracy = 0.0;
  double f1 = 0.0;
  ConfusionCounts counts;

  /// Fraction of evaluated data items whose elected value equals the gold
  /// truth (a secondary, item-level view).
  double item_accuracy = 0.0;
  size_t items_evaluated = 0;
};

/// Derives precision/recall/accuracy/F1 from confusion counts (0 whenever a
/// denominator is 0).
PerformanceMetrics MetricsFromCounts(const ConfusionCounts& counts);

/// Evaluates `predicted` against `gold` over all claims in `data`.
PerformanceMetrics Evaluate(const DatasetLike& data,
                            const GroundTruth& predicted,
                            const GroundTruth& gold);

/// The same for a run's predictions (on `data`'s storage), compared by
/// value id: the same counts as the GroundTruth form of the same values.
PerformanceMetrics Evaluate(const DatasetLike& data,
                            const Predictions& predicted,
                            const GroundTruth& gold);

}  // namespace tdac

#endif  // TDAC_EVAL_METRICS_H_
