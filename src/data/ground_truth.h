#ifndef TDAC_DATA_GROUND_TRUTH_H_
#define TDAC_DATA_GROUND_TRUTH_H_

#include <unordered_map>
#include <vector>

#include "data/ids.h"
#include "data/value.h"

namespace tdac {

/// \brief The one true value per data item (object, attribute).
///
/// Used in two roles: as the gold standard when evaluating algorithms
/// (`eval/metrics.h`), and as the *reference truth* produced by a base
/// algorithm when TD-AC builds attribute truth vectors (paper Eq. 1).
class GroundTruth {
 public:
  GroundTruth() = default;

  void Set(ObjectId object, AttributeId attribute, Value value) {
    truth_[ObjectAttrKey(object, attribute)] = std::move(value);
  }

  /// The true value, or nullptr when this data item has no recorded truth.
  const Value* Get(ObjectId object, AttributeId attribute) const {
    auto it = truth_.find(ObjectAttrKey(object, attribute));
    return it == truth_.end() ? nullptr : &it->second;
  }

  bool Has(ObjectId object, AttributeId attribute) const {
    return truth_.contains(ObjectAttrKey(object, attribute));
  }

  size_t size() const { return truth_.size(); }
  bool empty() const { return truth_.empty(); }

  /// Makes room for `items` data items without rehashing.
  void Reserve(size_t items) { truth_.reserve(items); }

  /// Merges `other` into this; on key collisions `other` wins. Used by
  /// TD-AC to aggregate per-partition predictions.
  void MergeFrom(const GroundTruth& other) {
    // Per-key map assignment commutes across distinct keys, and equal keys
    // always resolve to `other`'s value, so traversal order is immaterial.
    // lint: unordered-ok (key-wise assignment)
    for (const auto& [key, value] : other.truth_) truth_[key] = value;
  }

  /// Keys of all recorded data items, unordered (map iteration order).
  const std::unordered_map<uint64_t, Value>& items() const { return truth_; }

  /// Keys in ascending order (deterministic iteration for tests/IO).
  std::vector<uint64_t> SortedKeys() const;

  bool operator==(const GroundTruth& other) const {
    return truth_ == other.truth_;
  }

 private:
  std::unordered_map<uint64_t, Value> truth_;
};

}  // namespace tdac

#endif  // TDAC_DATA_GROUND_TRUTH_H_
