#include "data/dataset_builder.h"

#include <algorithm>
#include <bit>
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

uint64_t ClaimHash(SourceId source, ObjectId object, AttributeId attribute) {
  // splitmix64's finalizer over the item key with the source folded in.
  uint64_t h = ObjectAttrKey(object, attribute) ^
               (static_cast<uint64_t>(static_cast<uint32_t>(source)) *
                0x9e3779b97f4a7c15ULL);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

// A duplicate-set slot holds the high half of the claim's hash over the
// claim's index; all ones marks an empty slot. The home slot is the top
// bits of the hash, so it can be recomputed from the slot alone.
constexpr uint64_t kEmptySlot = ~uint64_t{0};
constexpr uint64_t kTagMask = ~uint64_t{0xffffffff};

uint64_t SlotEntry(uint64_t hash, size_t claim) {
  return (hash & kTagMask) | static_cast<uint32_t>(claim);
}

/// Where the probe for `hash` (or a slot entry) starts in `slots`.
size_t HomeSlot(const std::vector<uint64_t>& slots, uint64_t hash) {
  return static_cast<size_t>(hash >> (64 - std::countr_zero(slots.size())));
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
  if (2 * (dataset_.num_claims() + 1) > claim_slots_.size()) GrowClaimSlots();
  const uint64_t hash = ClaimHash(source, object, attribute);
  const size_t slot = ProbeClaim(hash, source, object, attribute);
  if (claim_slots_[slot] != kEmptySlot) {
    return Status::AlreadyExists(
        "duplicate claim for (source=" + dataset_.source_name(source) +
        ", object=" + dataset_.object_name(object) +
        ", attribute=" + dataset_.attribute_name(attribute) + ")");
  }
  claim_slots_[slot] = SlotEntry(hash, dataset_.num_claims());
  dataset_.AppendClaim(Claim{source, object, attribute, std::move(value)});
  return Status::OK();
}

size_t DatasetBuilder::ProbeClaim(uint64_t hash, SourceId source,
                                  ObjectId object,
                                  AttributeId attribute) const {
  const size_t mask = claim_slots_.size() - 1;
  for (size_t slot = HomeSlot(claim_slots_, hash);; slot = (slot + 1) & mask) {
    const uint64_t entry = claim_slots_[slot];
    if (entry == kEmptySlot) return slot;
    // Equal tags are almost always the same claim; only then are the
    // columns read back to make sure.
    if ((entry & kTagMask) != (hash & kTagMask)) continue;
    const auto i = static_cast<size_t>(static_cast<uint32_t>(entry));
    if (dataset_.claim_objects()[i] == object &&
        dataset_.claim_attributes()[i] == attribute &&
        dataset_.claim_sources()[i] == source) {
      return slot;
    }
  }
}

void DatasetBuilder::GrowClaimSlots() {
  const std::vector<uint64_t> old = std::exchange(
      claim_slots_, std::vector<uint64_t>(
                        std::max<size_t>(16, 2 * claim_slots_.size()),
                        kEmptySlot));
  // The entries are distinct, so each takes the first free slot from its
  // home; the columns are not read. A home only doubles as the table does,
  // so walking the old table in order writes the new one nearly in order.
  const size_t mask = claim_slots_.size() - 1;
  for (const uint64_t entry : old) {
    if (entry == kEmptySlot) continue;
    size_t slot = HomeSlot(claim_slots_, entry);
    while (claim_slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    claim_slots_[slot] = entry;
  }
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
  // The duplicate set goes first: its memory is back before the indexes
  // are built.
  claim_slots_ = {};
  dataset_.BuildIndexes();
  Dataset out = std::move(dataset_);
  dataset_ = Dataset();
  source_ids_.clear();
  object_ids_.clear();
  attribute_ids_.clear();
  return out;
}

}  // namespace tdac
