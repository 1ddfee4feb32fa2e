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

namespace {

/// Tallies the claims of one evaluated item: a claim is predicted positive
/// when its id is `predicted_id` and actually positive when it is
/// `gold_id`. Both are the ids equal claims carry (kInvalidId, which no
/// claim carries, when none does), so id equality is Value equality.
void CountClaims(std::span<const int32_t> claims,
                 const std::vector<int32_t>& value_ids, ValueId predicted_id,
                 ValueId gold_id, ConfusionCounts& counts) {
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

/// MetricsFromCounts plus the item-level figures.
PerformanceMetrics Finish(const ConfusionCounts& counts, size_t items_correct,
                          size_t items_evaluated) {
  PerformanceMetrics m = MetricsFromCounts(counts);
  m.items_evaluated = items_evaluated;
  m.item_accuracy = items_evaluated > 0
                        ? static_cast<double>(items_correct) /
                              static_cast<double>(items_evaluated)
                        : 0.0;
  return m;
}

}  // namespace

PerformanceMetrics Evaluate(const DatasetLike& data,
                            const GroundTruth& predicted,
                            const GroundTruth& gold) {
  ConfusionCounts counts;
  size_t items_correct = 0;
  size_t items_evaluated = 0;
  const Dataset& storage = data.storage();
  const ValueDict& dict = storage.value_dict();
  const std::vector<uint64_t>& keys = data.DataItems();
  for (size_t row = 0; row < keys.size(); ++row) {
    const ObjectId o = ObjectFromKey(keys[row]);
    const AttributeId a = AttributeFromKey(keys[row]);
    const std::span<const int32_t> claims = data.ClaimsAt(row);
    const Value* p = predicted.Get(o, a);
    const Value* g = gold.Get(o, a);
    if (p == nullptr || g == nullptr) {
      counts.skipped_claims += claims.size();
      continue;
    }
    ++items_evaluated;
    if (*p == *g) ++items_correct;
    // Both sides resolve to dictionary ids once per item.
    CountClaims(claims, storage.claim_value_ids(), dict.Find(*p),
                dict.Find(*g), counts);
  }
  return Finish(counts, items_correct, items_evaluated);
}

PerformanceMetrics Evaluate(const DatasetLike& data,
                            const Predictions& predicted,
                            const GroundTruth& gold) {
  ConfusionCounts counts;
  size_t items_correct = 0;
  size_t items_evaluated = 0;
  const Dataset& storage = data.storage();
  const ValueDict& dict = storage.value_dict();
  const std::vector<uint64_t>& keys = data.DataItems();
  // The predictions' keys ascend like DataItems(): one cursor walks them.
  size_t next = 0;
  for (size_t row = 0; row < keys.size(); ++row) {
    const uint64_t key = keys[row];
    const std::span<const int32_t> claims = data.ClaimsAt(row);
    while (next < predicted.size() && predicted.keys[next] < key) ++next;
    const Value* g = gold.Get(ObjectFromKey(key), AttributeFromKey(key));
    if (next == predicted.size() || predicted.keys[next] != key ||
        g == nullptr) {
      counts.skipped_claims += claims.size();
      continue;
    }
    ++items_evaluated;
    const ValueId predicted_id = MatchId(dict, predicted.value_ids[next]);
    const ValueId gold_id = dict.Find(*g);
    if (predicted_id != kInvalidId && predicted_id == gold_id) {
      ++items_correct;
    }
    CountClaims(claims, storage.claim_value_ids(), predicted_id, gold_id,
                counts);
  }
  return Finish(counts, items_correct, items_evaluated);
}

}  // namespace tdac
