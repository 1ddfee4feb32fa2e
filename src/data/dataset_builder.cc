#include "data/dataset_builder.h"

#include <utility>

namespace tdac {

namespace {
// Looks the name up before inserting it: most calls hit an existing name,
// and an emplace would build and free a node (and a string copy) each time.
template <typename Map>
int32_t InternName(Map* map, std::vector<std::string>* names,
                   const std::string& name) {
  auto it = map->find(name);
  if (it != map->end()) return it->second;
  const auto id = static_cast<int32_t>(names->size());
  map->emplace(name, id);
  names->push_back(name);
  return id;
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
  dataset_.AppendClaim(Claim{source, object, attribute, std::move(value)});
  return Status::OK();
}

Status DatasetBuilder::AddClaim(const std::string& source,
                                const std::string& object,
                                const std::string& attribute, Value value) {
  return AddClaim(AddSource(source), AddObject(object),
                  AddAttribute(attribute), std::move(value));
}

Result<Dataset> DatasetBuilder::Build(size_t* repeated_claim) {
  if (dataset_.num_claims() == 0) {
    return Status::FailedPrecondition("cannot build an empty dataset");
  }
  Dataset out = std::exchange(dataset_, Dataset());
  source_ids_.clear();
  object_ids_.clear();
  attribute_ids_.clear();
  const int32_t repeat = out.BuildIndexes();
  if (repeat == kInvalidId) return out;
  const auto i = static_cast<size_t>(repeat);
  if (repeated_claim != nullptr) *repeated_claim = i;
  return Status::AlreadyExists(
      "duplicate claim for (source=" +
      out.source_name(out.claim_sources()[i]) +
      ", object=" + out.object_name(out.claim_objects()[i]) +
      ", attribute=" + out.attribute_name(out.claim_attributes()[i]) + ")");
}

}  // namespace tdac
