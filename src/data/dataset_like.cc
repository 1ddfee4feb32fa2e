#include "data/dataset_like.h"

#include "data/dataset.h"

namespace tdac {
namespace {

/// Ascending ids of `axis` (a storage column) that some claim of `data`
/// carries.
std::vector<int32_t> ActiveIds(const DatasetLike& data,
                               const std::vector<int32_t>& axis, int count) {
  std::vector<char> seen(static_cast<size_t>(count), 0);
  for (int32_t id : data.claim_ids()) {
    seen[static_cast<size_t>(axis[static_cast<size_t>(id)])] = 1;
  }
  std::vector<int32_t> out;
  for (size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(static_cast<int32_t>(i));
  }
  return out;
}

}  // namespace

Claim DatasetLike::claim(size_t index) const {
  const Dataset& s = storage();
  return Claim{s.claim_sources()[index], s.claim_objects()[index],
               s.claim_attributes()[index],
               s.value_dict().ValueAt(s.claim_value_ids()[index])};
}

std::vector<AttributeId> DatasetLike::ActiveAttributes() const {
  return ActiveIds(*this, storage().claim_attributes(), num_attributes());
}

std::vector<ObjectId> DatasetLike::ActiveObjects() const {
  return ActiveIds(*this, storage().claim_objects(), num_objects());
}

uint64_t DatasetFingerprint(const DatasetLike& data) {
  // FNV-1a-style fold; ValueDict::Hash is Value::Hash of the stored value,
  // which is stable, so the fingerprint is too.
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(data.num_sources()));
  mix(static_cast<uint64_t>(data.num_objects()));
  mix(static_cast<uint64_t>(data.num_attributes()));
  mix(data.num_claims());
  const Dataset& s = data.storage();
  for (int32_t id : data.claim_ids()) {
    const auto i = static_cast<size_t>(id);
    mix(static_cast<uint64_t>(static_cast<uint32_t>(s.claim_sources()[i])));
    mix(ObjectAttrKey(s.claim_objects()[i], s.claim_attributes()[i]));
    mix(s.value_dict().Hash(s.claim_value_ids()[i]));
  }
  return h;
}

}  // namespace tdac
