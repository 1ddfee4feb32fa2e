#ifndef TDAC_DATA_DATASET_BUILDER_H_
#define TDAC_DATA_DATASET_BUILDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"

namespace tdac {

/// \brief Incremental constructor for `Dataset`.
///
/// Names are interned: adding an existing name returns the existing id.
/// Claims must be unique per (source, object, attribute) — the one-truth
/// setting allows a source a single claim per data item.
class DatasetBuilder {
 public:
  DatasetBuilder() = default;

  /// Returns the id of `name`, creating it on first use.
  SourceId AddSource(const std::string& name);
  ObjectId AddObject(const std::string& name);
  AttributeId AddAttribute(const std::string& name);

  /// Looks up an existing name; kInvalidId when absent.
  SourceId FindSource(const std::string& name) const;
  ObjectId FindObject(const std::string& name) const;
  AttributeId FindAttribute(const std::string& name) const;

  /// Records a claim: interns its value and appends it to the columns.
  /// Fails with AlreadyExists if this (source, object, attribute) already
  /// has a claim, and with InvalidArgument on bad ids.
  [[nodiscard]]
  Status AddClaim(SourceId source, ObjectId object, AttributeId attribute,
                  Value value);

  /// Name-based convenience overload (interns all three names).
  [[nodiscard]]
  Status AddClaim(const std::string& source, const std::string& object,
                  const std::string& attribute, Value value);

  size_t num_claims() const { return dataset_.num_claims(); }

  /// Finalizes the dataset and resets the builder. Fails when empty. The
  /// returned store is frozen (`Dataset::frozen()`): its indexes are built
  /// once here, and any later append aborts.
  [[nodiscard]] Result<Dataset> Build();

 private:
  /// The slot of `claim_slots_` holding the claim (source, object,
  /// attribute), whose ClaimHash is `hash`, else the empty slot where it
  /// belongs.
  size_t ProbeClaim(uint64_t hash, SourceId source, ObjectId object,
                    AttributeId attribute) const;

  /// Doubles `claim_slots_` and re-inserts every claim appended so far.
  void GrowClaimSlots();

  Dataset dataset_;
  std::unordered_map<std::string, SourceId> source_ids_;
  std::unordered_map<std::string, ObjectId> object_ids_;
  std::unordered_map<std::string, AttributeId> attribute_ids_;
  // The duplicate check: the set of (item key, source) pairs claimed so
  // far, as one open-addressing table with linear probing. A slot holds
  // the index of the claim that owns the pair (its key is read back from
  // the columns) under the high half of the pair's hash, which settles
  // almost every mismatch without touching the columns; all ones marks an
  // empty slot. The power-of-two size stays at least twice the claim
  // count. Flat, so a claim costs no heap node; Build() releases it.
  std::vector<uint64_t> claim_slots_;
};

}  // namespace tdac

#endif  // TDAC_DATA_DATASET_BUILDER_H_
