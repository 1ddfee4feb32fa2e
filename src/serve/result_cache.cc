#include "serve/result_cache.h"

#include <tuple>
#include <utility>

namespace tdac {
namespace {

/// A predicted item is one entry in each of the three prediction arrays:
/// its key, its value id and its confidence.
constexpr size_t kBytesPerPredictedItem =
    sizeof(uint64_t) + sizeof(ValueId) + sizeof(double);
constexpr size_t kBytesPerSourceTrust = sizeof(double);

}  // namespace

size_t ApproxResultBytes(const TruthDiscoveryResult& result) {
  return sizeof(TruthDiscoveryResult) +
         result.predicted.size() * kBytesPerPredictedItem +
         result.source_trust.size() * kBytesPerSourceTrust;
}

std::shared_ptr<const TruthDiscoveryResult> ServeResultCache::Get(
    const ResultCacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = memo_.find(key);
  if (it == memo_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  it->second.last_used = ++tick_;
  return it->second.result;
}

void ServeResultCache::Put(const ResultCacheKey& key,
                           std::shared_ptr<const TruthDiscoveryResult> result) {
  if (max_bytes_ == 0 || result == nullptr) return;
  const size_t entry_bytes = ApproxResultBytes(*result);
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry_bytes > max_bytes_) {
    // Oversized: caching it would flush the entire working set for one
    // entry that can never have company. Drop it instead.
    ++oversized_;
    return;
  }
  Entry& entry = memo_[key];
  bytes_ -= entry.bytes;  // zero for a fresh insert
  entry.result = std::move(result);
  entry.bytes = entry_bytes;
  entry.last_used = ++tick_;
  bytes_ += entry_bytes;
  while (bytes_ > max_bytes_ && memo_.size() > 1) {
    // Same LRU-scan-with-deterministic-tie-break discipline as
    // RestrictionCache: the map is small and eviction runs only on inserts
    // past the budget.
    auto victim = memo_.end();
    // lint: unordered-ok (min-scan with total-order tie-break)
    for (auto it = memo_.begin(); it != memo_.end(); ++it) {
      if (it->first == key) continue;  // never evict the fresh insert
      if (victim == memo_.end()) {
        victim = it;
        continue;
      }
      if (it->second.last_used < victim->second.last_used ||
          (it->second.last_used == victim->second.last_used &&
           std::tie(it->first.fingerprint, it->first.options_hash) <
               std::tie(victim->first.fingerprint,
                        victim->first.options_hash))) {
        victim = it;
      }
    }
    if (victim == memo_.end()) return;
    bytes_ -= victim->second.bytes;
    memo_.erase(victim);
    ++evictions_;
  }
}

ServeResultCache::Stats ServeResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.oversized = oversized_;
  out.live = memo_.size();
  out.bytes = bytes_;
  out.max_bytes = max_bytes_;
  return out;
}

}  // namespace tdac
