#ifndef TDAC_DATA_DATASET_BUILDER_H_
#define TDAC_DATA_DATASET_BUILDER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
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
  SourceId AddSource(std::string_view name);
  ObjectId AddObject(std::string_view name);
  AttributeId AddAttribute(std::string_view name);

  /// Looks up an existing name; kInvalidId when absent.
  SourceId FindSource(std::string_view name) const;
  ObjectId FindObject(std::string_view name) const;
  AttributeId FindAttribute(std::string_view name) const;

  /// Records a claim: interns its value and appends it to the columns.
  /// Fails with InvalidArgument on bad ids. A repeated (source, object,
  /// attribute) is accepted here and refused by Build().
  [[nodiscard]]
  Status AddClaim(SourceId source, ObjectId object, AttributeId attribute,
                  Value value);

  /// Name-based convenience overload (interns all three names).
  [[nodiscard]]
  Status AddClaim(std::string_view source, std::string_view object,
                  std::string_view attribute, Value value);

  /// Appends `later`'s names and claims after this builder's, as if every
  /// call made on `later` had been made here next: a name or value new to
  /// this builder gets the next id, in `later`'s first-seen order. This is
  /// how a load parsed in pieces gets the ids a load in one piece assigns.
  void Append(const DatasetBuilder& later);

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
  /// String hash that also takes a string_view, so a lookup builds no key.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  using NameIds =
      std::unordered_map<std::string, int32_t, NameHash, std::equal_to<>>;

  Dataset dataset_;
  NameIds source_ids_;
  NameIds object_ids_;
  NameIds attribute_ids_;
};

}  // namespace tdac

#endif  // TDAC_DATA_DATASET_BUILDER_H_
