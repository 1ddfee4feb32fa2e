#include "data/dataset.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace tdac {

const std::vector<int32_t>& Dataset::ClaimsOn(ObjectId object,
                                              AttributeId attribute) const {
  auto it = by_item_.find(ObjectAttrKey(object, attribute));
  if (it == by_item_.end()) return EmptyClaimIndexList();
  return it->second;
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
      for (int32_t idx : by_item_.find(items_[r])->second) {
        ObjectId& last = counted_for[static_cast<size_t>(
            claim_sources_[static_cast<size_t>(idx)])];
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

void Dataset::BuildIndexes() {
  // Each Dataset instance is indexed exactly once; the value dictionary is
  // ranked here and then frozen together with the columns.
  TDAC_CHECK(!frozen_) << "Dataset::BuildIndexes on a frozen store";
  const size_t n = num_claims();
  by_source_.assign(source_names_.size(), {});
  claim_ids_.resize(n);
  std::iota(claim_ids_.begin(), claim_ids_.end(), 0);
  value_dict_.Freeze();
  claim_value_ranks_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    claim_value_ranks_[i] = value_dict_.rank(claim_value_ids_[i]);
    by_item_[ObjectAttrKey(claim_objects_[i], claim_attributes_[i])]
        .push_back(static_cast<int32_t>(i));
    by_source_[static_cast<size_t>(claim_sources_[i])].push_back(
        static_cast<int32_t>(i));
  }
  items_.reserve(by_item_.size());
  // lint: unordered-ok (keys are sorted below)
  for (const auto& [key, indices] : by_item_) items_.push_back(key);
  std::sort(items_.begin(), items_.end());
  claim_items_.resize(n);
  for (size_t r = 0; r < items_.size(); ++r) {
    for (int32_t idx : by_item_.find(items_[r])->second) {
      claim_items_[static_cast<size_t>(idx)] = static_cast<int32_t>(r);
    }
  }
  frozen_ = true;
}

}  // namespace tdac
