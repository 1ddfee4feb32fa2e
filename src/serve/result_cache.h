#ifndef TDAC_SERVE_RESULT_CACHE_H_
#define TDAC_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "td/truth_discovery.h"

namespace tdac {

/// \brief Identity of a `run` request's answer: the dataset (or
/// restriction) content plus the algorithm configuration.
///
/// `fingerprint` is DatasetFingerprint over the exact DatasetLike the run
/// executes on — restricting to a different attribute subset changes the
/// fingerprint, so restrictions never collide with the full dataset.
/// `options_hash` covers algorithm name and mode but deliberately NOT
/// resource limits (deadline, iteration budget, threads): a *clean* result
/// is deterministic and thread-count-invariant by the library's contract,
/// so requests that differ only in budgets share one cached answer.
/// Degraded results are never cached (ServeEngine policy) — a best-so-far
/// iterate under one budget is not the answer under another.
struct ResultCacheKey {
  uint64_t fingerprint = 0;
  uint64_t options_hash = 0;

  bool operator==(const ResultCacheKey& other) const {
    return fingerprint == other.fingerprint &&
           options_hash == other.options_hash;
  }
};

/// Approximate resident size of one cached result: the struct itself plus
/// its arrays, 20 bytes per predicted item (key, value id, confidence) and
/// 8 per source (allocator slack is not counted — the point is to make a
/// million-object result weigh a million times a thirty-object one, not to
/// be byte-exact).
size_t ApproxResultBytes(const TruthDiscoveryResult& result);

/// \brief A byte-bounded LRU cache of completed truth-discovery results,
/// shared across serving requests.
///
/// Bounded by approximate resident **bytes** (ApproxResultBytes), not
/// entry count: an entry-count cap lets a handful of huge-dataset results
/// occupy unbounded memory while tiny results are evicted on schedule.
/// Inserting past the budget evicts least-recently-used entries until the
/// total fits; a single result larger than the whole budget is dropped on
/// Put (never cached, counted in `stats().oversized`) rather than allowed
/// to flush everything else.
///
/// Values are immutable and shared: a Get handed out survives eviction for
/// as long as the caller holds it. A budget of 0 disables the cache (every
/// Get misses, Put drops). All methods are thread-safe.
class ServeResultCache {
 public:
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t evictions = 0;
    size_t oversized = 0;  // Puts dropped for exceeding the whole budget
    size_t live = 0;
    size_t bytes = 0;      // approximate resident bytes
    size_t max_bytes = 0;  // the configured budget
  };

  explicit ServeResultCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  /// The cached result for `key`, or nullptr (recording a miss). A hit
  /// refreshes the entry's LRU position.
  std::shared_ptr<const TruthDiscoveryResult> Get(const ResultCacheKey& key);

  /// Inserts (or refreshes) `key`; evicts least-recently-used entries
  /// until the byte budget is respected. No-op at budget 0; oversized
  /// results (alone larger than the budget) are dropped.
  void Put(const ResultCacheKey& key,
           std::shared_ptr<const TruthDiscoveryResult> result);

  Stats stats() const;

 private:
  struct KeyHash {
    size_t operator()(const ResultCacheKey& key) const {
      // splitmix64-style mix of the two halves.
      uint64_t h = key.fingerprint ^ (key.options_hash * 0x9e3779b97f4a7c15ULL);
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      return static_cast<size_t>(h);
    }
  };

  struct Entry {
    std::shared_ptr<const TruthDiscoveryResult> result;
    size_t bytes = 0;
    uint64_t last_used = 0;
  };

  const size_t max_bytes_;
  mutable std::mutex mutex_;
  std::unordered_map<ResultCacheKey, Entry, KeyHash> memo_;
  uint64_t tick_ = 0;
  size_t bytes_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
  size_t oversized_ = 0;
};

}  // namespace tdac

#endif  // TDAC_SERVE_RESULT_CACHE_H_
