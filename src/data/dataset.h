#ifndef TDAC_DATA_DATASET_H_
#define TDAC_DATA_DATASET_H_

#include <span>
#include <string>
#include <vector>

#include "data/claim.h"
#include "data/dataset_like.h"
#include "data/ids.h"
#include "data/value_dict.h"

namespace tdac {

/// \brief An immutable, indexed collection of conflicting claims.
///
/// A `Dataset` is the triplet (S, A, O) of the paper plus the observations:
/// name tables for sources, objects, and attributes, and the claims with
/// one index, by data item (object, attribute). Datasets are built with
/// `DatasetBuilder`. Restricting to an attribute or object subset
/// — how TD-AC runs a base algorithm per attribute cluster — is done either
/// with a zero-copy `DatasetView` (preferred; see data/dataset_view.h) or by
/// materializing a copy (`RestrictToAttributes` / `RestrictToObjects`); both
/// preserve the original id space.
///
/// The claims live in one columnar (structure-of-arrays) store — dense
/// int32 source/object/attribute/item columns plus a dictionary-encoded
/// value column backed by a string arena (docs/data_layout.md). There is no
/// row copy: `claim(i)` assembles a `Claim` from the columns on demand.
/// `BuildIndexes` derives the item index and freezes the store: a built
/// Dataset is immutable, and the builder's append hooks reject further
/// mutation (`frozen()`).
class Dataset : public DatasetLike {
 public:
  int num_sources() const override {
    return static_cast<int>(source_names_.size());
  }
  int num_objects() const override {
    return static_cast<int>(object_names_.size());
  }
  int num_attributes() const override {
    return static_cast<int>(attribute_names_.size());
  }
  size_t num_claims() const override { return claim_sources_.size(); }

  const std::string& source_name(SourceId s) const {
    return source_names_[static_cast<size_t>(s)];
  }
  const std::string& object_name(ObjectId o) const {
    return object_names_[static_cast<size_t>(o)];
  }
  const std::string& attribute_name(AttributeId a) const {
    return attribute_names_[static_cast<size_t>(a)];
  }

  /// All claim indices, 0..num_claims()-1.
  const std::vector<int32_t>& claim_ids() const override { return claim_ids_; }

  /// Flat per-claim axis-id columns: claim i is about object
  /// claim_objects()[i] and attribute claim_attributes()[i].
  const std::vector<int32_t>& claim_objects() const { return claim_objects_; }
  const std::vector<int32_t>& claim_attributes() const {
    return claim_attributes_;
  }

  /// Per-claim source-id column.
  const std::vector<int32_t>& claim_sources() const { return claim_sources_; }

  /// Dictionary-encoded value column: claim_value_ids()[i] is the
  /// `value_dict()` id of claim i's value. Two claims carry equal Values
  /// exactly when their ids are equal (see ValueDict), so vote tallies
  /// compare int32s here instead of Values.
  const std::vector<int32_t>& claim_value_ids() const {
    return claim_value_ids_;
  }

  /// Per-claim row index into DataItems(): claim i is about the item
  /// DataItems()[claim_items()[i]]. Gives kernels a dense 0..#items-1 item
  /// axis without hashing ObjectAttrKeys.
  const std::vector<int32_t>& claim_items() const { return claim_items_; }

  /// Per-claim dictionary rank, claim_value_ranks()[i] ==
  /// value_dict().rank(claim_value_ids()[i]), precomputed sequentially at
  /// freeze time. Grouping kernels sort by this column; folding the
  /// id-to-rank hop in here turns two dependent random loads per claim
  /// (value id, then its rank in a dictionary-sized table) into one.
  const std::vector<int32_t>& claim_value_ranks() const {
    return claim_value_ranks_;
  }

  /// The value dictionary behind claim_value_ids() (frozen, with ranks).
  const ValueDict& value_dict() const { return value_dict_; }

  /// True once BuildIndexes has run (DatasetBuilder::Build, restriction,
  /// DatasetView::Materialize all finish with it). A frozen store rejects
  /// further appends: the indexes must cover every claim, and handed-out
  /// references into the columns must stay valid.
  bool frozen() const { return frozen_; }

  /// Storage indices of all claims about the data item
  /// (object, attribute), ascending; empty when no source covers it. Found
  /// by binary search over DataItems().
  std::span<const int32_t> ClaimsOn(ObjectId object,
                                    AttributeId attribute) const override;

  /// Keys (see ObjectAttrKey) of every data item with at least one claim,
  /// in ascending key order (object-major).
  const std::vector<uint64_t>& DataItems() const override { return items_; }

  const Dataset& storage() const override { return *this; }

  /// Data Coverage Rate in percent, per the paper's Eq. 7 (Section 4.4):
  /// the fraction of (source, data item) pairs that carry a claim, over
  /// sources and attributes active per object.
  double DataCoverageRate() const;

  /// A materialized dataset containing only claims whose attribute is in
  /// `attributes`. Name tables and id spaces are preserved. Prefer
  /// `DatasetView` for read-only restriction — it shares the parent's
  /// storage and item index instead of copying them.
  Dataset RestrictToAttributes(const std::vector<AttributeId>& attributes) const;

  /// The object-axis analogue of RestrictToAttributes (used by the TD-OC
  /// object-partitioning extension).
  Dataset RestrictToObjects(const std::vector<ObjectId>& objects) const;

  /// Human-readable one-line summary (counts + DCR).
  std::string Summary() const;

 private:
  friend class DatasetBuilder;
  friend class DatasetView;   // Materialize() copies through CopyClaims
  friend class DatasetTestPeer;  // freeze-enforcement tests poke the guards

  /// Ranks and freezes the dictionary, fills claim_value_ranks_ and builds
  /// the item index. Returns the smallest claim index that repeats an
  /// earlier claim's (source, object, attribute), or kInvalidId when every
  /// claim is unique; the store is frozen either way.
  int32_t BuildIndexes();

  /// The builder's only way to add a claim: interns the value and appends
  /// one row to every column. Aborts on a frozen store.
  void AppendClaim(const Claim& claim);

  /// A frozen copy holding the claims `ids` (ascending storage indices),
  /// in that order, with this store's name tables. Values are re-interned
  /// in that order, so the copy's dictionary ids and ranks are the ones a
  /// fresh build of the same claims would assign.
  Dataset CopyClaims(const std::vector<int32_t>& ids) const;

  /// Guard for the builder's name-table writes; aborts on a frozen store.
  void CheckMutable(const char* op) const;

  std::vector<std::string> source_names_;
  std::vector<std::string> object_names_;
  std::vector<std::string> attribute_names_;

  // The item index, in CSR form: row r of items_ holds the claims
  // item_claims_[item_offsets_[r] .. item_offsets_[r + 1]), ascending.
  std::vector<uint64_t> items_;
  std::vector<int32_t> item_offsets_;
  std::vector<int32_t> item_claims_;
  std::vector<int32_t> claim_ids_;
  std::vector<int32_t> claim_objects_;
  std::vector<int32_t> claim_attributes_;
  std::vector<int32_t> claim_sources_;
  std::vector<int32_t> claim_value_ids_;
  std::vector<int32_t> claim_items_;
  std::vector<int32_t> claim_value_ranks_;
  ValueDict value_dict_;
  bool frozen_ = false;
};

}  // namespace tdac

#endif  // TDAC_DATA_DATASET_H_
