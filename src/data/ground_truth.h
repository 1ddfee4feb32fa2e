#ifndef TDAC_DATA_GROUND_TRUTH_H_
#define TDAC_DATA_GROUND_TRUTH_H_

#include <unordered_map>
#include <vector>

#include "data/ids.h"
#include "data/value.h"

namespace tdac {

/// \brief The one true value per data item (object, attribute).
///
/// The gold standard when evaluating algorithms (`eval/metrics.h`), an
/// oracle for partition search, and a truth CSV loaded by name. A run's
/// own predictions are columnar instead (`data/predictions.h`), since
/// every value they elect is one of the dataset's.
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
