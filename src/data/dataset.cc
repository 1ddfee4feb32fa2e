#include "data/dataset.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace tdac {

namespace {

/// The claim ids `ids`, stably sorted by their entries in `axis`, a claim
/// column whose values lie in [0, count).
std::vector<int32_t> CountingSortBy(const std::vector<int32_t>& ids,
                                    const std::vector<int32_t>& axis,
                                    size_t count) {
  // next[v] is where the next id with axis value v goes.
  std::vector<int32_t> next(count + 1, 0);
  for (int32_t id : ids) {
    ++next[static_cast<size_t>(axis[static_cast<size_t>(id)]) + 1];
  }
  for (size_t v = 0; v < count; ++v) next[v + 1] += next[v];
  std::vector<int32_t> out(ids.size());
  for (int32_t id : ids) {
    int32_t& slot = next[static_cast<size_t>(axis[static_cast<size_t>(id)])];
    out[static_cast<size_t>(slot++)] = id;
  }
  return out;
}

}  // namespace

std::span<const int32_t> Dataset::ClaimsOn(ObjectId object,
                                           AttributeId attribute) const {
  const uint64_t key = ObjectAttrKey(object, attribute);
  const auto it = std::lower_bound(items_.begin(), items_.end(), key);
  if (it == items_.end() || *it != key) return {};
  return ClaimsAt(static_cast<size_t>(it - items_.begin()));
}

double Dataset::DataCoverageRate() const {
  // Per object o: S_o = sources with >= 1 claim on o, A_o = attributes with
  // >= 1 claim on o. The numerator of the missing mass is
  // |S_o| * |A_o| - sum_{s in S_o} |A_{o-s}| and the second sum is simply the
  // number of claims on o (claims are unique per (s, o, a)). Items are
  // object-major, so each object's items form one run of DataItems(). The
  // sums are of integer-valued doubles, exact well below 2^53.
  double full = 0.0;
  std::vector<ObjectId> counted_for(source_names_.size(), kInvalidId);
  for (size_t r = 0; r < items_.size();) {
    const ObjectId object = ObjectFromKey(items_[r]);
    double sources = 0.0;
    double attributes = 0.0;
    for (; r < items_.size() && ObjectFromKey(items_[r]) == object; ++r) {
      attributes += 1.0;
      for (int32_t k = item_offsets_[r]; k < item_offsets_[r + 1]; ++k) {
        const auto idx =
            static_cast<size_t>(item_claims_[static_cast<size_t>(k)]);
        ObjectId& last =
            counted_for[static_cast<size_t>(claim_sources_[idx])];
        if (last != object) sources += 1.0;
        last = object;
      }
    }
    full += sources * attributes;
  }
  if (full <= 0.0) return 0.0;
  return 100.0 * static_cast<double>(num_claims()) / full;
}

Dataset Dataset::RestrictToAttributes(
    const std::vector<AttributeId>& attributes) const {
  std::vector<char> keep(attribute_names_.size(), 0);
  for (AttributeId a : attributes) {
    TDAC_CHECK(a >= 0 && a < num_attributes())
        << "RestrictToAttributes: attribute id out of range: " << a;
    keep[static_cast<size_t>(a)] = 1;
  }
  std::vector<int32_t> kept;
  for (int32_t id : claim_ids_) {
    if (keep[static_cast<size_t>(claim_attributes_[static_cast<size_t>(id)])]) {
      kept.push_back(id);
    }
  }
  return CopyClaims(kept);
}

Dataset Dataset::RestrictToObjects(const std::vector<ObjectId>& objects) const {
  std::vector<char> keep(object_names_.size(), 0);
  for (ObjectId o : objects) {
    TDAC_CHECK(o >= 0 && o < num_objects())
        << "RestrictToObjects: object id out of range: " << o;
    keep[static_cast<size_t>(o)] = 1;
  }
  std::vector<int32_t> kept;
  for (int32_t id : claim_ids_) {
    if (keep[static_cast<size_t>(claim_objects_[static_cast<size_t>(id)])]) {
      kept.push_back(id);
    }
  }
  return CopyClaims(kept);
}

Dataset Dataset::CopyClaims(const std::vector<int32_t>& ids) const {
  Dataset out;
  out.source_names_ = source_names_;
  out.object_names_ = object_names_;
  out.attribute_names_ = attribute_names_;
  // This dictionary's id -> the copy's; each distinct value is
  // materialized once, on its first kept claim.
  std::vector<ValueId> copy_id(static_cast<size_t>(value_dict_.size()),
                               kInvalidId);
  for (int32_t id : ids) {
    const auto i = static_cast<size_t>(id);
    const ValueId value = claim_value_ids_[i];
    ValueId& mapped = copy_id[static_cast<size_t>(value)];
    if (mapped == kInvalidId) {
      mapped = out.value_dict_.Intern(value_dict_.ValueAt(value));
    }
    out.claim_sources_.push_back(claim_sources_[i]);
    out.claim_objects_.push_back(claim_objects_[i]);
    out.claim_attributes_.push_back(claim_attributes_[i]);
    out.claim_value_ids_.push_back(mapped);
  }
  // A subset of this store's unique claims repeats none of them.
  out.BuildIndexes();
  return out;
}

std::string Dataset::Summary() const {
  std::ostringstream os;
  os << num_sources() << " sources, " << num_objects() << " objects, "
     << num_attributes() << " attributes, " << num_claims()
     << " observations, DCR=" << FormatDouble(DataCoverageRate(), 1) << "%";
  return os.str();
}

void Dataset::AppendClaim(const Claim& claim) {
  TDAC_CHECK(!frozen_)
      << "Dataset: AddClaim after Build — the store is frozen";
  claim_sources_.push_back(claim.source);
  claim_objects_.push_back(claim.object);
  claim_attributes_.push_back(claim.attribute);
  claim_value_ids_.push_back(value_dict_.Intern(claim.value));
}

void Dataset::CheckMutable(const char* op) const {
  TDAC_CHECK(!frozen_) << "Dataset: " << op
                       << " after Build — the store is frozen";
}

int32_t Dataset::BuildIndexes() {
  // Each Dataset instance is indexed exactly once; the value dictionary is
  // ranked here and then frozen together with the columns.
  TDAC_CHECK(!frozen_) << "Dataset::BuildIndexes on a frozen store";
  // The appended columns grew by doubling; a frozen store never grows
  // again, so it keeps no slack.
  claim_sources_.shrink_to_fit();
  claim_objects_.shrink_to_fit();
  claim_attributes_.shrink_to_fit();
  claim_value_ids_.shrink_to_fit();
  const size_t n = num_claims();
  claim_ids_.resize(n);
  std::iota(claim_ids_.begin(), claim_ids_.end(), 0);
  value_dict_.Freeze();
  claim_value_ranks_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    claim_value_ranks_[i] = value_dict_.rank(claim_value_ids_[i]);
  }
  // Sorting by attribute and then, stably, by object groups the claims by
  // item in key order, ascending within each item.
  item_claims_ = CountingSortBy(
      CountingSortBy(claim_ids_, claim_attributes_, attribute_names_.size()),
      claim_objects_, object_names_.size());
  // One walk over the runs numbers the item rows, fills claim_items_ and
  // finds repeats: a source whose last row is the current row claims the
  // item twice, and as ids ascend within a run, the claim found is the
  // later of the two. The smallest such id is the first repeat in AddClaim
  // order.
  claim_items_.resize(n);
  std::vector<int32_t> last_row(source_names_.size(), kInvalidId);
  int32_t repeat = kInvalidId;
  for (size_t k = 0; k < n; ++k) {
    const int32_t id = item_claims_[k];
    const auto i = static_cast<size_t>(id);
    const uint64_t key =
        ObjectAttrKey(claim_objects_[i], claim_attributes_[i]);
    if (items_.empty() || items_.back() != key) {
      items_.push_back(key);
      item_offsets_.push_back(static_cast<int32_t>(k));
    }
    const auto row = static_cast<int32_t>(items_.size() - 1);
    claim_items_[i] = row;
    int32_t& last = last_row[static_cast<size_t>(claim_sources_[i])];
    if (last == row && (repeat == kInvalidId || id < repeat)) repeat = id;
    last = row;
  }
  item_offsets_.push_back(static_cast<int32_t>(n));
  frozen_ = true;
  return repeat;
}

}  // namespace tdac
