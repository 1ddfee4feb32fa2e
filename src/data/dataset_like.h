#ifndef TDAC_DATA_DATASET_LIKE_H_
#define TDAC_DATA_DATASET_LIKE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/claim.h"
#include "data/ids.h"

namespace tdac {

class Dataset;

/// \brief The read interface shared by `Dataset` (owning storage) and
/// `DatasetView` (zero-copy restriction of a parent).
///
/// Everything a truth-discovery algorithm consumes goes through this
/// interface: claim iteration (`claim_ids()` over the `storage()` columns),
/// the per-item conflict index (`DataItems()` + `ClaimsAt()` by row, or
/// `ClaimsOn()` by key), and the id-space counts. Claim ids are indices
/// into the *storage* dataset's claim columns, so they are stable across
/// every view of the same storage and a view's `ClaimsOn` can return a
/// span of the storage's item index without copying.
///
/// Id spaces (sources / objects / attributes) are always the storage's:
/// restricting never renumbers, so predictions computed on a restriction
/// merge directly with predictions on its complement.
class DatasetLike {
 public:
  virtual ~DatasetLike() = default;

  virtual int num_sources() const = 0;
  virtual int num_objects() const = 0;
  virtual int num_attributes() const = 0;
  virtual size_t num_claims() const = 0;

  /// The claim with storage index `index`, assembled from the storage
  /// columns (its Value materialized from the dictionary). Valid for every
  /// id appearing in `claim_ids()` or `ClaimsOn()`.
  /// Loops should read the columns instead.
  Claim claim(size_t index) const;

  /// Storage indices of every claim in this dataset/view, in ascending
  /// (original claim) order.
  virtual const std::vector<int32_t>& claim_ids() const = 0;

  /// Indices of all claims about the data item (object, attribute), in
  /// ascending order; empty when no covered source claims it (or the item
  /// is restricted away). The span points into the storage's item index
  /// and lives as long as the storage.
  virtual std::span<const int32_t> ClaimsOn(ObjectId object,
                                            AttributeId attribute) const = 0;

  /// Keys (see ObjectAttrKey) of every data item with at least one claim,
  /// in ascending key order (object-major).
  virtual const std::vector<uint64_t>& DataItems() const = 0;

  /// The claims of the data item DataItems()[row]: its ClaimsOn span,
  /// found without a key search. Loops over DataItems() read claims here.
  virtual std::span<const int32_t> ClaimsAt(size_t row) const = 0;

  /// The row of DataItems()[row] in the storage's DataItems(): `row`
  /// itself for a Dataset.
  virtual size_t StorageRow(size_t row) const = 0;

  /// The underlying storage dataset: itself for a `Dataset`, the root
  /// parent for a `DatasetView`. Views of views share one storage.
  virtual const Dataset& storage() const = 0;

  /// Attributes with at least one claim, ascending.
  std::vector<AttributeId> ActiveAttributes() const;

  /// Objects with at least one claim, ascending.
  std::vector<ObjectId> ActiveObjects() const;
};

/// Order-sensitive 64-bit fingerprint of a dataset/view: the id-space
/// counts plus every claim (source, object, attribute, value) in claim-id
/// order. Checkpoint slots embed it so a resume against different data (or
/// a different restriction of the same storage) is detected and ignored
/// instead of blending two runs.
uint64_t DatasetFingerprint(const DatasetLike& data);

}  // namespace tdac

#endif  // TDAC_DATA_DATASET_LIKE_H_
