#include "data/dataset_builder.h"

#include <utility>
#include <vector>

namespace tdac {

namespace {
// Looks the name up before inserting it: most calls hit an existing name,
// and an emplace would build and free a node (and a string copy) each time.
template <typename Map>
int32_t InternName(Map* map, std::vector<std::string>* names,
                   std::string_view name) {
  auto it = map->find(name);
  if (it != map->end()) return it->second;
  const auto id = static_cast<int32_t>(names->size());
  map->emplace(name, id);
  names->emplace_back(name);
  return id;
}

template <typename Map>
int32_t LookupName(const Map& map, std::string_view name) {
  auto it = map.find(name);
  return it == map.end() ? kInvalidId : it->second;
}
}  // namespace

SourceId DatasetBuilder::AddSource(std::string_view name) {
  dataset_.CheckMutable("AddSource");
  return InternName(&source_ids_, &dataset_.source_names_, name);
}

ObjectId DatasetBuilder::AddObject(std::string_view name) {
  dataset_.CheckMutable("AddObject");
  return InternName(&object_ids_, &dataset_.object_names_, name);
}

AttributeId DatasetBuilder::AddAttribute(std::string_view name) {
  dataset_.CheckMutable("AddAttribute");
  return InternName(&attribute_ids_, &dataset_.attribute_names_, name);
}

SourceId DatasetBuilder::FindSource(std::string_view name) const {
  return LookupName(source_ids_, name);
}

ObjectId DatasetBuilder::FindObject(std::string_view name) const {
  return LookupName(object_ids_, name);
}

AttributeId DatasetBuilder::FindAttribute(std::string_view name) const {
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

Status DatasetBuilder::AddClaim(std::string_view source,
                                std::string_view object,
                                std::string_view attribute, Value value) {
  return AddClaim(AddSource(source), AddObject(object),
                  AddAttribute(attribute), std::move(value));
}

void DatasetBuilder::Append(const DatasetBuilder& later) {
  dataset_.CheckMutable("Append");
  const Dataset& in = later.dataset_;
  // later's id -> this builder's. Interning in later's id order, which is
  // its first-seen order, gives each new name and value the id it would
  // have got had later's calls been made here.
  auto map_names = [](NameIds* ids, std::vector<std::string>* names,
                      const std::vector<std::string>& later_names) {
    std::vector<int32_t> mapped;
    mapped.reserve(later_names.size());
    for (const std::string& name : later_names) {
      mapped.push_back(InternName(ids, names, name));
    }
    return mapped;
  };
  const std::vector<int32_t> sources =
      map_names(&source_ids_, &dataset_.source_names_, in.source_names_);
  const std::vector<int32_t> objects =
      map_names(&object_ids_, &dataset_.object_names_, in.object_names_);
  const std::vector<int32_t> attributes = map_names(
      &attribute_ids_, &dataset_.attribute_names_, in.attribute_names_);
  std::vector<ValueId> values(static_cast<size_t>(in.value_dict_.size()));
  for (size_t v = 0; v < values.size(); ++v) {
    values[v] = dataset_.value_dict_.InternFrom(in.value_dict_,
                                                static_cast<ValueId>(v));
  }
  auto append = [](std::vector<int32_t>* column,
                   const std::vector<int32_t>& ids,
                   const std::vector<int32_t>& later_column) {
    for (int32_t id : later_column) {
      column->push_back(ids[static_cast<size_t>(id)]);
    }
  };
  append(&dataset_.claim_sources_, sources, in.claim_sources_);
  append(&dataset_.claim_objects_, objects, in.claim_objects_);
  append(&dataset_.claim_attributes_, attributes, in.claim_attributes_);
  append(&dataset_.claim_value_ids_, values, in.claim_value_ids_);
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
