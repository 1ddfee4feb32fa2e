#ifndef TDAC_DATA_PREDICTIONS_H_
#define TDAC_DATA_PREDICTIONS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "data/dataset_like.h"
#include "data/ids.h"
#include "data/value.h"
#include "data/value_dict.h"

namespace tdac {

/// \brief A run's predictions, columnar (docs/data_layout.md,
/// Predictions).
///
/// One entry per predicted data item, in ascending key order (a run's
/// DataItems() order): the item's key, the id of its elected value in the
/// value dictionary of the storage the run read, and the algorithm's
/// confidence in that value. The three arrays are parallel.
///
/// Predictions hold no pointer to a dataset: a value is read through the
/// dataset the caller already has (ValueAt, Get), which must share the
/// storage of the run that made them. Gold and oracle truths, which name
/// values a dataset may lack, stay GroundTruths.
struct Predictions {
  std::vector<uint64_t> keys;
  std::vector<ValueId> value_ids;
  std::vector<double> confidences;

  size_t size() const { return keys.size(); }
  bool empty() const { return keys.empty(); }

  /// Appends one item; `key` must exceed every key already held.
  void Add(uint64_t key, ValueId value_id, double confidence);

  /// The index of the item (object, attribute), or size() when it has no
  /// prediction. A binary search over `keys`.
  size_t Find(ObjectId object, AttributeId attribute) const;

  /// The elected value of item `index`, read through `data`'s dictionary.
  Value ValueAt(size_t index, const DatasetLike& data) const;

  /// The elected value of (object, attribute), read through `data`'s
  /// dictionary; nullopt when the item has no prediction.
  std::optional<Value> Get(ObjectId object, AttributeId attribute,
                           const DatasetLike& data) const;

  bool operator==(const Predictions& other) const = default;
};

/// The union of `parts`, keys ascending: a k-way merge of their sorted
/// arrays. On a key held by several parts the last part's entry wins.
Predictions MergePredictions(std::span<const Predictions* const> parts);

/// The id a claim equal to `predicted` carries: `predicted` itself, or
/// kInvalidId for a NaN, which equals no value (itself included). Compare
/// claim ids with this, not with the raw id, to count by Value equality.
inline ValueId MatchId(const ValueDict& dict, ValueId predicted) {
  return dict.IsNaN(predicted) ? kInvalidId : predicted;
}

}  // namespace tdac

#endif  // TDAC_DATA_PREDICTIONS_H_
