#ifndef TDAC_SERVE_ENGINE_H_
#define TDAC_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/run_guard.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/dataset_view.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"

namespace tdac {

/// \brief Configuration for a ServeEngine.
struct ServeOptions {
  /// Concurrent request executions (the engine's worker-pool width).
  int workers = 2;

  /// Admitted requests waiting beyond the executing ones. Admission
  /// control bounds total in-flight work at `workers + queue_capacity`;
  /// everything past that is rejected immediately with
  /// StopReason::kOverloaded instead of queueing unboundedly.
  int queue_capacity = 8;

  /// Byte budget for completed clean results kept for repeat requests
  /// (LRU over approximate resident bytes — see ServeResultCache; 0
  /// disables). A byte bound, not an entry count: a handful of
  /// huge-dataset results would evade any count cap.
  size_t result_cache_bytes = 8u << 20;

  /// Byte budget for loaded datasets kept resident, keyed by claims path
  /// (LRU over approximate claim-row bytes). The dataset a request is
  /// using always stays resident even when it alone exceeds the budget,
  /// so the floor is one entry.
  size_t dataset_cache_bytes = 128u << 20;

  /// Per-dataset restriction-view cache capacity (attrs= requests).
  size_t restriction_cache_capacity = 32;

  /// Deadline applied to requests that carry none. 0 = unlimited.
  double default_deadline_ms = 0.0;

  /// When non-empty, TD-AC-mode executions checkpoint into this directory
  /// (per-request slots named from the dataset fingerprint + options
  /// hash) and resume from a matching slot — the warm half of a journal
  /// replay: a re-executed request picks up mid-run state its killed
  /// predecessor persisted (docs/checkpointing.md). Empty disables.
  std::string checkpoint_dir;

  /// Snapshot interval for the per-request checkpoint slots.
  double checkpoint_interval_ms = 250.0;

  /// Test/bench hook: extra synthetic work (cancellation-aware sleep)
  /// inserted into every cold execution, so saturation tests and the load
  /// generator's overload phase can congest the queue deterministically
  /// without giant datasets. 0 in production.
  double execution_delay_ms = 0.0;
};

/// \brief The long-lived serving core behind `tdac_serve`: admission
/// control, deadline propagation, request coalescing, and a
/// fingerprint-keyed result cache over the library's algorithms.
///
/// Life of a request (docs/serving.md):
///
///   1. **Admission.** Submit() bounds in-flight work at
///      `workers + queue_capacity`. Past that it fires the callback
///      immediately with a kRejected / kOverloaded response — the caller
///      may retry later; no work ran. Admission runs under the engine's
///      state mutex, so the bound is exact, not advisory.
///   2. **Deadline.** The request's deadline starts at *admission*.
///      Queue wait spends it: when a worker finally picks the request up,
///      only the remainder is handed to the RunGuard, and an already
///      expired deadline still produces one labeled best-so-far iterate
///      (exit-3 semantics) rather than an unbounded run — an overloaded
///      server degrades per request instead of stalling the queue.
///   3. **Coalescing + cache.** The request's identity is
///      (DatasetFingerprint of the exact data it runs on, algorithm
///      options hash). An identical *in-flight* execution adopts the
///      request as a follower (one execution, N responses); a completed
///      clean result is served from the LRU result cache. Degraded
///      results are never cached.
///   4. **Execution.** The algorithm runs under a RunGuard combining the
///      per-request budget with the engine's shutdown token.
///
/// Exactly one callback fires per Submit(), always: result, rejection, or
/// error. Callbacks run on engine worker threads (or the submitting
/// thread, for rejections) and must not block.
class ServeEngine {
 public:
  using Callback = std::function<void(const ServeResponse&)>;

  /// Counter snapshot, taken under the engine's one state mutex so the
  /// request-lifecycle counters are mutually consistent: every snapshot
  /// satisfies `submitted == rejected + completed + in_flight` exactly
  /// (the TSan-registered consistency test pins this — the counters are
  /// not independently-sampled atomics racing each other). Pool depths
  /// and cache stats are sampled separately and are monitoring-only.
  struct Stats {
    uint64_t submitted = 0;
    uint64_t rejected = 0;       // kOverloaded at admission
    uint64_t completed = 0;      // terminal responses other than rejections
    uint64_t executions = 0;     // cold runs actually performed
    uint64_t cache_hits = 0;     // served from the result cache
    uint64_t coalesced = 0;      // adopted by an identical in-flight run
    uint64_t deadline_degraded = 0;
    uint64_t errors = 0;
    int in_flight = 0;           // admitted, not yet responded
    int pool_queued = 0;         // ThreadPool depth counters
    int pool_active = 0;
    size_t dataset_cache_live = 0;    // resident datasets
    size_t dataset_cache_bytes = 0;   // their approximate resident bytes
    size_t dataset_cache_budget = 0;  // the configured byte budget
    ServeResultCache::Stats result_cache;
  };

  explicit ServeEngine(const ServeOptions& options);

  /// Shuts down (cancelling in-flight guards) and drains the workers.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Admission control; exactly one `callback` call per Submit. After
  /// Shutdown() every Submit is rejected with kCancelled.
  void Submit(ServeRequest request, Callback callback);

  /// Submit + wait: the terminal response for `request`.
  ServeResponse ExecuteBlocking(ServeRequest request);

  /// Graceful shutdown: rejects new submissions (kCancelled) and waits for
  /// every in-flight request to finish normally. Idempotent. The daemon
  /// uses this on stdin EOF / `shutdown` — outstanding work completes
  /// clean.
  void Drain();

  /// Urgent shutdown: Drain() plus cancelling every in-flight RunGuard
  /// first, so runs unwind promptly with labeled best-so-far results.
  /// Idempotent; also invoked by the destructor. A SIGTERM/SIGINT handler
  /// may call `cancellation()->Cancel()` directly (async-signal safe: one
  /// lock-free atomic store) and leave the blocking drain to the main
  /// thread.
  void Shutdown();

  /// The engine-wide cancellation token (every request's guard observes
  /// it).
  CancellationToken* cancellation() { return &cancel_; }

  Stats stats() const;

  const ServeOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One admitted request, stamped with its admission time (the deadline
  /// anchor).
  struct Admitted {
    ServeRequest request;
    Callback callback;
    Clock::time_point admitted_at;
    double deadline_ms = 0.0;  // resolved (request or engine default)
  };

  /// A resident dataset plus its restriction-view cache.
  struct DatasetEntry {
    std::once_flag once;
    Status status;  // load failure, if any
    std::shared_ptr<const Dataset> dataset;
    std::unique_ptr<RestrictionCache> restrictions;
    uint64_t fingerprint = 0;  // of the full dataset
    uint64_t last_used = 0;
    /// Approximate resident bytes, set once the load completes (atomic
    /// because the loader writes it outside the map lock the LRU scan
    /// reads it under).
    std::atomic<size_t> bytes{0};
  };

  /// An in-flight execution; followers share its eventual result.
  struct Flight {
    std::vector<Admitted> followers;
  };

  void Execute(Admitted admitted);

  /// Resolves the dataset entry for `path` through the LRU dataset cache;
  /// a miss loads the file on `threads` threads.
  std::shared_ptr<DatasetEntry> DatasetFor(const std::string& path,
                                           int threads);

  /// Builds the terminal response for one finished run and fires the
  /// callback, accounting for the in-flight slot.
  void Respond(const Admitted& admitted, ServeResponse response);

  const ServeOptions options_;
  const int admission_limit_;

  CancellationToken cancel_;

  /// One mutex owns the request-lifecycle state: admission (the in-flight
  /// gauge vs. the limit), the shutdown flag, and every counter. That
  /// makes the admission bound exact *and* every stats() snapshot
  /// internally consistent — the previous scheme of independent relaxed
  /// atomics let a snapshot observe a request as neither in flight nor
  /// completed. All critical sections are a few arithmetic ops; execution
  /// itself never holds the lock.
  mutable std::mutex state_mutex_;
  std::condition_variable drain_cv_;

  // Guarded by state_mutex_:
  bool shutdown_ = false;
  int in_flight_ = 0;
  /// Responses whose accounting is done but whose callback has not yet
  /// returned — Drain() waits for these too, so "drained" means every
  /// response line was actually written, not just counted.
  int callbacks_outstanding_ = 0;
  uint64_t submitted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t completed_ = 0;
  uint64_t executions_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t coalesced_ = 0;
  uint64_t deadline_degraded_ = 0;
  uint64_t errors_ = 0;

  mutable std::mutex datasets_mutex_;
  std::unordered_map<std::string, std::shared_ptr<DatasetEntry>> datasets_;
  uint64_t dataset_tick_ = 0;

  ServeResultCache results_;

  std::mutex flights_mutex_;
  std::map<std::pair<uint64_t, uint64_t>, std::shared_ptr<Flight>> flights_;

  /// Declared last so its destructor (which drains queued tasks) runs
  /// before the state above is torn down.
  std::unique_ptr<ThreadPool> pool_;
};

/// The options-identity half of ResultCacheKey for `request`: algorithm
/// name + mode, deliberately excluding resource limits (see
/// ResultCacheKey). Exposed for tests.
uint64_t ServeOptionsHash(const ServeRequest& request);

}  // namespace tdac

#endif  // TDAC_SERVE_ENGINE_H_
