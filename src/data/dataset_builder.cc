#include "data/dataset_builder.h"

#include <utility>

namespace tdac {

namespace {
template <typename Map>
int32_t InternName(Map* map, std::vector<std::string>* names,
                   const std::string& name) {
  auto [it, inserted] = map->emplace(name, static_cast<int32_t>(names->size()));
  if (inserted) names->push_back(name);
  return it->second;
}

template <typename Map>
int32_t LookupName(const Map& map, const std::string& name) {
  auto it = map.find(name);
  return it == map.end() ? kInvalidId : it->second;
}
}  // namespace

SourceId DatasetBuilder::AddSource(const std::string& name) {
  dataset_.CheckMutable("AddSource");
  return InternName(&source_ids_, &dataset_.source_names_, name);
}

ObjectId DatasetBuilder::AddObject(const std::string& name) {
  dataset_.CheckMutable("AddObject");
  return InternName(&object_ids_, &dataset_.object_names_, name);
}

AttributeId DatasetBuilder::AddAttribute(const std::string& name) {
  dataset_.CheckMutable("AddAttribute");
  return InternName(&attribute_ids_, &dataset_.attribute_names_, name);
}

SourceId DatasetBuilder::FindSource(const std::string& name) const {
  return LookupName(source_ids_, name);
}

ObjectId DatasetBuilder::FindObject(const std::string& name) const {
  return LookupName(object_ids_, name);
}

AttributeId DatasetBuilder::FindAttribute(const std::string& name) const {
  return LookupName(attribute_ids_, name);
}

Status DatasetBuilder::AddClaim(SourceId source, ObjectId object,
                                AttributeId attribute, Value value) {
  if (source < 0 || source >= dataset_.num_sources()) {
    return Status::InvalidArgument("bad source id");
  }
  if (object < 0 || object >= dataset_.num_objects()) {
    return Status::InvalidArgument("bad object id");
  }
  if (attribute < 0 || attribute >= dataset_.num_attributes()) {
    return Status::InvalidArgument("bad attribute id");
  }
  uint64_t key = ObjectAttrKey(object, attribute);
  auto& sources_seen = seen_[key];
  if (!sources_seen.emplace(source, 1).second) {
    return Status::AlreadyExists(
        "duplicate claim for (source=" + dataset_.source_name(source) +
        ", object=" + dataset_.object_name(object) +
        ", attribute=" + dataset_.attribute_name(attribute) + ")");
  }
  dataset_.AppendClaim(Claim{source, object, attribute, std::move(value)});
  return Status::OK();
}

Status DatasetBuilder::AddClaim(const std::string& source,
                                const std::string& object,
                                const std::string& attribute, Value value) {
  return AddClaim(AddSource(source), AddObject(object),
                  AddAttribute(attribute), std::move(value));
}

Result<Dataset> DatasetBuilder::Build() {
  if (dataset_.num_claims() == 0) {
    return Status::FailedPrecondition("cannot build an empty dataset");
  }
  dataset_.BuildIndexes();
  Dataset out = std::move(dataset_);
  dataset_ = Dataset();
  source_ids_.clear();
  object_ids_.clear();
  attribute_ids_.clear();
  seen_.clear();
  return out;
}

}  // namespace tdac
