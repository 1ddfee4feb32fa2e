#include "tdac/truth_vectors.h"

#include "data/dataset.h"

namespace tdac {

void FillTruthVectors(const DatasetLike& data, const Predictions& reference,
                      PartitionAxis axis, const std::vector<int32_t>& items,
                      std::vector<FeatureVector>* vectors,
                      std::vector<std::vector<uint8_t>>* masks) {
  const bool by_attribute = axis == PartitionAxis::kAttributes;
  const size_t num_sources = static_cast<size_t>(data.num_sources());
  const size_t dim = static_cast<size_t>(by_attribute ? data.num_objects()
                                                      : data.num_attributes()) *
                     num_sources;
  vectors->assign(items.size(), FeatureVector(dim, 0.0));
  masks->assign(items.size(), std::vector<uint8_t>(dim, 0));

  // Row index per item id for O(1) scatter.
  std::vector<int> row_of(static_cast<size_t>(by_attribute
                                                  ? data.num_attributes()
                                                  : data.num_objects()),
                          -1);
  for (size_t r = 0; r < items.size(); ++r) {
    row_of[static_cast<size_t>(items[r])] = static_cast<int>(r);
  }

  // The reference's keys ascend like DataItems(), so one cursor finds each
  // item's elected id; the item's claims then compare int32 ids against
  // it. Equal values share one id, so an id match is a Value match. An
  // item without a reference value, or whose value is NaN (equal to
  // nothing), compares against kInvalidId, which no claim carries.
  const Dataset& storage = data.storage();
  const std::vector<int32_t>& sources = storage.claim_sources();
  const std::vector<int32_t>& value_ids = storage.claim_value_ids();
  const ValueDict& dict = storage.value_dict();
  const std::vector<uint64_t>& keys = data.DataItems();
  size_t next = 0;
  for (size_t row = 0; row < keys.size(); ++row) {
    const uint64_t key = keys[row];
    const ObjectId o = ObjectFromKey(key);
    const AttributeId a = AttributeFromKey(key);
    const int r = row_of[static_cast<size_t>(by_attribute ? a : o)];
    if (r < 0) continue;
    while (next < reference.size() && reference.keys[next] < key) ++next;
    const ValueId truth_id =
        next < reference.size() && reference.keys[next] == key
            ? MatchId(dict, reference.value_ids[next])
            : kInvalidId;
    const size_t col_base =
        static_cast<size_t>(by_attribute ? o : a) * num_sources;
    std::vector<uint8_t>& mask_row = (*masks)[static_cast<size_t>(r)];
    FeatureVector& vec_row = (*vectors)[static_cast<size_t>(r)];
    for (int32_t idx : data.ClaimsAt(row)) {
      const auto i = static_cast<size_t>(idx);
      const size_t col = col_base + static_cast<size_t>(sources[i]);
      mask_row[col] = 1;
      if (value_ids[i] == truth_id) vec_row[col] = 1.0;
    }
  }
}

Result<TruthVectorMatrix> BuildTruthVectors(const DatasetLike& data,
                                            const Predictions& reference) {
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("BuildTruthVectors: empty dataset");
  }
  TruthVectorMatrix matrix;
  matrix.attributes = data.ActiveAttributes();
  FillTruthVectors(data, reference, PartitionAxis::kAttributes,
                   matrix.attributes, &matrix.vectors, &matrix.masks);
  return matrix;
}

Result<TruthVectorMatrix> BuildTruthVectors(const DatasetLike& data,
                                            const GroundTruth& reference) {
  // Only a value some claim carries can match one: the items whose value
  // the dictionary holds are the whole reference as far as Eq. 1 can see.
  const ValueDict& dict = data.storage().value_dict();
  Predictions resolved;
  for (uint64_t key : data.DataItems()) {
    const Value* value =
        reference.Get(ObjectFromKey(key), AttributeFromKey(key));
    const ValueId id = value != nullptr ? dict.Find(*value) : kInvalidId;
    if (id != kInvalidId) resolved.Add(key, id, 0.0);
  }
  return BuildTruthVectors(data, resolved);
}

Result<TruthVectorMatrix> BuildTruthVectors(const TruthDiscovery& base,
                                            const DatasetLike& data) {
  TDAC_ASSIGN_OR_RETURN(TruthDiscoveryResult reference, base.Discover(data));
  return BuildTruthVectors(data, reference.predicted);
}

}  // namespace tdac
