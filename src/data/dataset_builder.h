#ifndef TDAC_DATA_DATASET_BUILDER_H_
#define TDAC_DATA_DATASET_BUILDER_H_

#include <cstddef>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"

namespace tdac {

/// \brief Incremental constructor for `Dataset`.
///
/// Names are interned: adding an existing name returns the existing id.
/// Claims must be unique per (source, object, attribute) — the one-truth
/// setting allows a source a single claim per data item. `Build()` checks
/// this, in the pass that builds the item index.
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
  /// Fails with InvalidArgument on bad ids. A repeated (source, object,
  /// attribute) is accepted here and refused by Build().
  [[nodiscard]]
  Status AddClaim(SourceId source, ObjectId object, AttributeId attribute,
                  Value value);

  /// Name-based convenience overload (interns all three names).
  [[nodiscard]]
  Status AddClaim(const std::string& source, const std::string& object,
                  const std::string& attribute, Value value);

  size_t num_claims() const { return dataset_.num_claims(); }

  /// Finalizes the dataset and resets the builder. Fails when empty, and
  /// with AlreadyExists when a claim repeats an earlier claim's (source,
  /// object, attribute): the first such claim in AddClaim order is named,
  /// and its index (0-based, in AddClaim order) goes to `*repeated_claim`
  /// when that is given. The builder is reset on success and on a repeat.
  /// The returned store is frozen (`Dataset::frozen()`): its indexes are
  /// built once here, and any later append aborts.
  [[nodiscard]] Result<Dataset> Build(size_t* repeated_claim = nullptr);

 private:
  Dataset dataset_;
  std::unordered_map<std::string, SourceId> source_ids_;
  std::unordered_map<std::string, ObjectId> object_ids_;
  std::unordered_map<std::string, AttributeId> attribute_ids_;
};

}  // namespace tdac

#endif  // TDAC_DATA_DATASET_BUILDER_H_
