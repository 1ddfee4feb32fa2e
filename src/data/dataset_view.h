#ifndef TDAC_DATA_DATASET_VIEW_H_
#define TDAC_DATA_DATASET_VIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "data/dataset_like.h"

namespace tdac {

/// \brief A zero-copy, immutable view of a parent `DatasetLike` restricted
/// to an attribute or object subset.
///
/// Where `Dataset::RestrictToAttributes` copies every kept claim's columns,
/// re-interns its values, re-copies all three name tables, and rebuilds the
/// item index, a view only records which ids survive and filters the
/// parent's *index* vectors (4-byte claim ids). In particular `ClaimsOn`
/// returns a span of the storage dataset's item index: every claim on a
/// data item shares that item's object and attribute, so the item's claims
/// are either kept verbatim or dropped entirely — never partially
/// filtered.
///
/// Restriction composes: the parent may itself be a `DatasetView`, and the
/// construction cost is proportional to the *parent's* size, not the
/// storage's. Claim ids are storage indices at every nesting depth, so
/// results computed on any view merge directly with results from any other
/// view of the same storage.
///
/// Lifetime: a view holds non-owning pointers to its parent (and the
/// storage behind it) and must not outlive either. `RestrictionCache`
/// below keeps its views alive as long as the cache itself.
///
/// Thread safety: a view holds no mutable state; after construction it is
/// safe to read from any number of threads.
class DatasetView final : public DatasetLike {
 public:
  /// View of `parent` keeping only claims whose attribute is in
  /// `attributes`. Ids must be valid in the storage's attribute space.
  DatasetView(const DatasetLike& parent,
              const std::vector<AttributeId>& attributes);

  /// Tag type selecting the object-axis restriction (TD-OC).
  struct ObjectAxis {};
  DatasetView(const DatasetLike& parent, ObjectAxis,
              const std::vector<ObjectId>& objects);

  DatasetView(const DatasetView&) = delete;
  DatasetView& operator=(const DatasetView&) = delete;

  int num_sources() const override { return storage_->num_sources(); }
  int num_objects() const override { return storage_->num_objects(); }
  int num_attributes() const override { return storage_->num_attributes(); }
  size_t num_claims() const override { return claim_ids_.size(); }

  const std::vector<int32_t>& claim_ids() const override { return claim_ids_; }

  std::span<const int32_t> ClaimsOn(ObjectId object,
                                    AttributeId attribute) const override;
  const std::vector<uint64_t>& DataItems() const override { return items_; }

  const Dataset& storage() const override { return *storage_; }

  /// Materializes the view into an owning `Dataset` — the equivalent of
  /// the copying restriction path. Mainly for tests and serialization.
  Dataset Materialize() const;

 private:
  /// Fills claim_ids_ with the parent ids whose axis id (from the flat
  /// storage column `axis`) is kept, preserving ascending order.
  void FilterClaimIds(const DatasetLike& parent,
                      const std::vector<int32_t>& axis);

  const DatasetLike* parent_;
  const Dataset* storage_;

  /// Keep-mask over the restricted axis, indexed by storage id.
  std::vector<char> keep_;
  bool restrict_objects_ = false;

  std::vector<int32_t> claim_ids_;  // ascending storage claim indices
  std::vector<uint64_t> items_;     // surviving data items, ascending
};

/// \brief A bounded per-parent cache of restriction views, so the repeated
/// groups produced by TD-AC refinement rounds, exhaustive/greedy partition
/// search, and long-lived serving share one view instead of re-filtering
/// per request.
///
/// Same memo discipline as `GroupRunner`: a mutex guards the map structure
/// only, and each entry carries a once-latch, so a view requested from
/// many threads at once is built exactly once, off the map lock, while
/// distinct subsets build in parallel.
///
/// Views are handed out as `shared_ptr`, which is what makes the capacity
/// cap safe: evicting an entry drops the *cache's* reference, and the view
/// is destroyed only once the last caller lets go of its handle — an
/// eviction can never dangle a view somebody is still reading. Batch
/// callers (one run, cache dies with the run) use the default unbounded
/// capacity and behave exactly as before the cap existed; a long-lived
/// server caps the cache so adversarial traffic over many distinct
/// restrictions cannot grow it without bound (capacity 0 disables caching
/// entirely — every request builds a fresh view).
///
/// The cache must not outlive `parent`, and neither must any view handle
/// it returned.
class RestrictionCache {
 public:
  /// Default capacity: no cap (every distinct restriction stays cached).
  static constexpr size_t kUnbounded = static_cast<size_t>(-1);

  /// Hit/miss/eviction counters, snapshotted atomically by `stats()`.
  struct Stats {
    size_t hits = 0;       // requests served by an already-built view
    size_t misses = 0;     // requests that had to build (or rebuild) one
    size_t evictions = 0;  // views dropped by the capacity cap
    size_t live = 0;       // entries currently resident
  };

  /// `parent` is not owned and must outlive the cache. `capacity` caps the
  /// number of resident views: when an insert exceeds it, the
  /// least-recently-used entry is evicted. 0 means uncached.
  explicit RestrictionCache(const DatasetLike* parent,
                            size_t capacity = kUnbounded);

  /// The (shared) view of `parent` restricted to `attributes`.
  std::shared_ptr<const DatasetView> Attributes(
      const std::vector<AttributeId>& attributes);

  /// The (shared) view of `parent` restricted to `objects`.
  std::shared_ptr<const DatasetView> Objects(
      const std::vector<ObjectId>& objects);

  /// Number of distinct views actually built (cache misses, including
  /// rebuilds of previously evicted subsets).
  size_t views_built() const;

  /// Counter snapshot (consistent: taken under the cache lock).
  Stats stats() const;

 private:
  /// Cache key: the restriction axis plus the (storage-space) id subset.
  struct Key {
    bool object_axis = false;
    std::vector<int32_t> ids;

    bool operator==(const Key& other) const {
      return object_axis == other.object_axis && ids == other.ids;
    }
  };

  /// splitmix64 over the id sequence, length- and axis-seeded; equality on
  /// the vector itself makes the memo exact regardless of hash quality.
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  /// One memo slot. The entry owns a copy of its key (so the builder and
  /// the LRU list never read a map node that eviction may have erased) and
  /// is itself shared: an entry evicted mid-build finishes building for
  /// the threads already holding it, then dies with the last holder.
  struct Entry {
    explicit Entry(Key k) : key(std::move(k)) {}
    const Key key;
    std::once_flag once;
    std::shared_ptr<const DatasetView> view;
    uint64_t last_used = 0;  // LRU tick, written under the cache lock
  };

  std::shared_ptr<const DatasetView> ViewFor(Key key);

  /// Builds the entry's view exactly once (off the lock).
  void Build(Entry* entry);

  /// Drops least-recently-used entries until `memo_` fits the capacity.
  /// Caller holds `mutex_`. `keep` is never evicted.
  void EvictIfOver(const Entry* keep);

  const DatasetLike* parent_;
  const size_t capacity_;
  mutable std::mutex mutex_;  // guards memo_, the LRU state, and counters
  std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> memo_;
  uint64_t tick_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
  std::atomic<size_t> built_{0};
};

}  // namespace tdac

#endif  // TDAC_DATA_DATASET_VIEW_H_
