#include "eval/metrics.h"

#include "data/dataset.h"

namespace tdac {

PerformanceMetrics MetricsFromCounts(const ConfusionCounts& counts) {
  PerformanceMetrics m;
  m.counts = counts;
  const double tp = static_cast<double>(counts.tp);
  const double fp = static_cast<double>(counts.fp);
  const double tn = static_cast<double>(counts.tn);
  const double fn = static_cast<double>(counts.fn);
  if (tp + fp > 0) m.precision = tp / (tp + fp);
  if (tp + fn > 0) m.recall = tp / (tp + fn);
  if (tp + fp + tn + fn > 0) m.accuracy = (tp + tn) / (tp + fp + tn + fn);
  if (m.precision + m.recall > 0) {
    m.f1 = 2.0 * m.precision * m.recall / (m.precision + m.recall);
  }
  return m;
}

PerformanceMetrics Evaluate(const DatasetLike& data,
                            const GroundTruth& predicted,
                            const GroundTruth& gold) {
  ConfusionCounts counts;
  size_t items_correct = 0;
  size_t items_evaluated = 0;
  const Dataset& storage = data.storage();
  const std::vector<int32_t>& value_ids = storage.claim_value_ids();
  for (uint64_t key : data.DataItems()) {
    ObjectId o = ObjectFromKey(key);
    AttributeId a = AttributeFromKey(key);
    const std::span<const int32_t> claims = data.ClaimsOn(o, a);
    const Value* p = predicted.Get(o, a);
    const Value* g = gold.Get(o, a);
    if (p == nullptr || g == nullptr) {
      counts.skipped_claims += claims.size();
      continue;
    }
    // Item-level accuracy.
    ++items_evaluated;
    if (*p == *g) ++items_correct;

    // Claim-level confusion. Both sides resolve to dictionary ids once per
    // item (kInvalidId, which no claim carries, when absent); id equality
    // is Value equality.
    const ValueId predicted_id = storage.value_dict().Find(*p);
    const ValueId gold_id = storage.value_dict().Find(*g);
    for (int32_t idx : claims) {
      const ValueId value = value_ids[static_cast<size_t>(idx)];
      const bool predicted_positive = value == predicted_id;
      const bool actually_positive = value == gold_id;
      if (predicted_positive && actually_positive) {
        ++counts.tp;
      } else if (predicted_positive && !actually_positive) {
        ++counts.fp;
      } else if (!predicted_positive && actually_positive) {
        ++counts.fn;
      } else {
        ++counts.tn;
      }
    }
  }

  PerformanceMetrics m = MetricsFromCounts(counts);
  m.items_evaluated = items_evaluated;
  m.item_accuracy = items_evaluated > 0
                        ? static_cast<double>(items_correct) /
                              static_cast<double>(items_evaluated)
                        : 0.0;
  return m;
}

}  // namespace tdac
