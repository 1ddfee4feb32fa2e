#include "data/dataset_view.h"

#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/random.h"

namespace tdac {

DatasetView::DatasetView(const DatasetLike& parent,
                         const std::vector<AttributeId>& attributes)
    : parent_(&parent), storage_(&parent.storage()), restrict_objects_(false) {
  keep_.assign(static_cast<size_t>(storage_->num_attributes()), 0);
  for (AttributeId a : attributes) {
    TDAC_CHECK(a >= 0 && a < storage_->num_attributes())
        << "DatasetView: attribute id out of range: " << a;
    keep_[static_cast<size_t>(a)] = 1;
  }
  FilterClaimIds(parent, storage_->claim_attributes());
  FilterItems(parent);
}

DatasetView::DatasetView(const DatasetLike& parent, ObjectAxis,
                         const std::vector<ObjectId>& objects)
    : parent_(&parent), storage_(&parent.storage()), restrict_objects_(true) {
  keep_.assign(static_cast<size_t>(storage_->num_objects()), 0);
  for (ObjectId o : objects) {
    TDAC_CHECK(o >= 0 && o < storage_->num_objects())
        << "DatasetView: object id out of range: " << o;
    keep_[static_cast<size_t>(o)] = 1;
  }
  FilterClaimIds(parent, storage_->claim_objects());
  FilterItems(parent);
}

void DatasetView::FilterClaimIds(const DatasetLike& parent,
                                 const std::vector<int32_t>& axis) {
  // Branchless compaction: whether a claim survives is close to a coin
  // flip per claim (attribute groups interleave in storage order), so a
  // conditional push_back pays a mispredict on most claims. Writing every
  // id and bumping the cursor by the keep bit keeps the loop a straight
  // store + add.
  const std::vector<int32_t>& parent_ids = parent.claim_ids();
  claim_ids_.resize(parent_ids.size());
  size_t kept = 0;
  for (int32_t id : parent_ids) {
    claim_ids_[kept] = id;
    kept += static_cast<size_t>(
        keep_[static_cast<size_t>(axis[static_cast<size_t>(id)])]);
  }
  claim_ids_.resize(kept);
}

void DatasetView::FilterItems(const DatasetLike& parent) {
  const std::vector<uint64_t>& parent_items = parent.DataItems();
  items_.reserve(parent_items.size());
  storage_rows_.reserve(parent_items.size());
  for (size_t r = 0; r < parent_items.size(); ++r) {
    const uint64_t key = parent_items[r];
    const int32_t axis_id =
        restrict_objects_ ? ObjectFromKey(key) : AttributeFromKey(key);
    if (keep_[static_cast<size_t>(axis_id)]) {
      items_.push_back(key);
      storage_rows_.push_back(static_cast<uint32_t>(parent.StorageRow(r)));
    }
  }
}

std::span<const int32_t> DatasetView::ClaimsOn(ObjectId object,
                                               AttributeId attribute) const {
  const int32_t axis_id = restrict_objects_ ? object : attribute;
  if (axis_id < 0 || static_cast<size_t>(axis_id) >= keep_.size() ||
      keep_[static_cast<size_t>(axis_id)] == 0) {
    return {};
  }
  // Every claim on (object, attribute) shares this view's surviving axis
  // id, so the parent's span is correct verbatim — no filtering, no copy.
  return parent_->ClaimsOn(object, attribute);
}

Dataset DatasetView::Materialize() const {
  return storage_->CopyClaims(claim_ids_);
}

RestrictionCache::RestrictionCache(const DatasetLike* parent, size_t capacity)
    : parent_(parent), capacity_(capacity) {
  TDAC_CHECK(parent_ != nullptr) << "RestrictionCache requires a parent";
}

size_t RestrictionCache::KeyHash::operator()(const Key& key) const {
  uint64_t state = 0x9e3779b97f4a7c15ULL ^ key.ids.size() ^
                   (key.object_axis ? 0x8000000000000000ULL : 0);
  uint64_t h = 0;
  for (int32_t id : key.ids) {
    state ^= static_cast<uint64_t>(id) + 0x2545f4914f6cdd1dULL;
    h = h * 31 + SplitMix64(&state);
  }
  return static_cast<size_t>(h);
}

void RestrictionCache::Build(Entry* entry) {
  std::call_once(entry->once, [&]() {
    if (entry->key.object_axis) {
      entry->view = std::make_shared<const DatasetView>(
          *parent_, DatasetView::ObjectAxis{}, entry->key.ids);
    } else {
      entry->view =
          std::make_shared<const DatasetView>(*parent_, entry->key.ids);
    }
    built_.fetch_add(1, std::memory_order_acq_rel);
  });
}

void RestrictionCache::EvictIfOver(const Entry* keep) {
  while (memo_.size() > capacity_) {
    // LRU scan with a deterministic tie-break on the key itself, so which
    // view gets dropped never depends on hash-table order. The map is at
    // most `capacity_ + 1` entries here, and eviction only runs on inserts
    // past capacity, so the linear scan is not a hot path.
    auto victim = memo_.end();
    // lint: unordered-ok (min-scan with total-order tie-break)
    for (auto it = memo_.begin(); it != memo_.end(); ++it) {
      if (it->second.get() == keep) continue;
      if (victim == memo_.end()) {
        victim = it;
        continue;
      }
      const Entry& a = *it->second;
      const Entry& b = *victim->second;
      if (a.last_used < b.last_used ||
          (a.last_used == b.last_used &&
           std::tie(a.key.object_axis, a.key.ids) <
               std::tie(b.key.object_axis, b.key.ids))) {
        victim = it;
      }
    }
    if (victim == memo_.end()) return;  // only `keep` is resident
    memo_.erase(victim);
    ++evictions_;
  }
}

std::shared_ptr<const DatasetView> RestrictionCache::ViewFor(Key key) {
  if (capacity_ == 0) {
    // Uncached mode: build a fresh view per request, touch no shared state
    // beyond the counters.
    auto entry = std::make_shared<Entry>(std::move(key));
    Build(entry.get());
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    return entry->view;
  }
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++hits_;
    } else {
      ++misses_;
      auto fresh = std::make_shared<Entry>(std::move(key));
      it = memo_.emplace(fresh->key, fresh).first;
      EvictIfOver(fresh.get());
    }
    entry = it->second;
    entry->last_used = ++tick_;
  }
  Build(entry.get());
  return entry->view;
}

std::shared_ptr<const DatasetView> RestrictionCache::Attributes(
    const std::vector<AttributeId>& attributes) {
  Key key;
  key.object_axis = false;
  key.ids = attributes;
  return ViewFor(std::move(key));
}

std::shared_ptr<const DatasetView> RestrictionCache::Objects(
    const std::vector<ObjectId>& objects) {
  Key key;
  key.object_axis = true;
  key.ids = objects;
  return ViewFor(std::move(key));
}

size_t RestrictionCache::views_built() const {
  return built_.load(std::memory_order_acquire);
}

RestrictionCache::Stats RestrictionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.live = memo_.size();
  return out;
}

}  // namespace tdac
