#include "serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <tuple>
#include <utility>

#include "common/checkpoint.h"
#include "common/parallel.h"
#include "data/dataset_io.h"
#include "data/dataset_like.h"
#include "td/registry.h"
#include "tdac/tdac.h"

namespace tdac {
namespace {

/// Deadline handed to the RunGuard when a request's budget was already
/// spent in the queue: small enough that the guard trips at its first
/// check, so the run produces exactly one labeled best-so-far iterate
/// instead of running unbounded.
constexpr double kExpiredDeadlineMs = 1e-3;

/// Flat per-claim cost estimate for the dataset LRU: the claim columns,
/// the item index and the value dictionary, spread over the claims.
/// Measured with bench_micro_kernels' BM_DatasetFromCsv as the glibc heap
/// in use (mallinfo2 uordblks + hblkhd) after DatasetFromCsv minus before
/// it, on DS2 at 20k objects (1.2M claims, 352k distinct values): 69.0 MB,
/// 57.5 bytes per claim, at 1 and at 4 load threads (the built claim
/// columns keep no growth slack). Coarse on purpose — eviction only needs
/// big datasets to weigh proportionally more.
constexpr size_t kBytesPerClaim = 57;

uint64_t MixHash(uint64_t h, uint64_t value) {
  h ^= value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

uint64_t HashString(uint64_t h, const std::string& s) {
  for (const char c : s) h = MixHash(h, static_cast<uint64_t>(c) + 1);
  return MixHash(h, s.size());
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

size_t ApproxDatasetBytes(const Dataset& dataset) {
  return sizeof(Dataset) + dataset.num_claims() * kBytesPerClaim;
}

std::string Hex16(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

uint64_t ServeOptionsHash(const ServeRequest& request) {
  uint64_t h = 0x7464616320736572ULL;  // arbitrary domain tag
  h = HashString(h, request.algorithm);
  h = MixHash(h, static_cast<uint64_t>(request.mode));
  return h;
}

ServeEngine::ServeEngine(const ServeOptions& options)
    : options_(options),
      admission_limit_(std::max(1, options.workers) +
                       std::max(0, options.queue_capacity)),
      results_(options.result_cache_bytes),
      // workers + 1 because a ThreadPool of size n spawns n - 1 threads
      // (size 1 runs Submit inline on the caller, which would turn Submit
      // into a blocking call here).
      pool_(std::make_unique<ThreadPool>(std::max(1, options.workers) + 1)) {}

ServeEngine::~ServeEngine() { Shutdown(); }

void ServeEngine::Submit(ServeRequest request, Callback callback) {
  const Clock::time_point now = Clock::now();

  // Admission control: counter updates and the bound check happen in one
  // critical section, so the limit is exact and `submitted` can never
  // drift from `rejected + completed + in_flight`.
  bool rejected = false;
  bool closed = false;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++submitted_;
    closed = shutdown_;
    if (closed || in_flight_ >= admission_limit_) {
      ++rejected_;
      rejected = true;
    } else {
      ++in_flight_;
    }
  }
  if (rejected) {
    ServeResponse response;
    response.id = request.id;
    response.outcome = ServeResponse::Outcome::kRejected;
    response.stop_reason =
        closed ? StopReason::kCancelled : StopReason::kOverloaded;
    response.latency_ms = MillisSince(now);
    callback(response);
    return;
  }

  Admitted admitted;
  admitted.request = std::move(request);
  admitted.callback = std::move(callback);
  admitted.admitted_at = now;
  admitted.deadline_ms = admitted.request.deadline_ms > 0
                             ? admitted.request.deadline_ms
                             : options_.default_deadline_ms;

  auto shared = std::make_shared<Admitted>(std::move(admitted));
  pool_->Submit([this, shared]() { Execute(std::move(*shared)); });
}

ServeResponse ServeEngine::ExecuteBlocking(ServeRequest request) {
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();
  Submit(std::move(request), [&promise](const ServeResponse& response) {
    promise.set_value(response);
  });
  return future.get();
}

void ServeEngine::Drain() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  shutdown_ = true;
  // Both gauges: a request whose accounting is done but whose callback is
  // still emitting its response line has not fully left the building.
  drain_cv_.wait(lock, [this]() {
    return in_flight_ == 0 && callbacks_outstanding_ == 0;
  });
}

void ServeEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    shutdown_ = true;
  }
  cancel_.Cancel();
  Drain();
}

std::shared_ptr<ServeEngine::DatasetEntry> ServeEngine::DatasetFor(
    const std::string& path, int threads) {
  std::shared_ptr<DatasetEntry> entry;
  {
    std::lock_guard<std::mutex> lock(datasets_mutex_);
    std::shared_ptr<DatasetEntry>& slot = datasets_[path];
    if (slot == nullptr) slot = std::make_shared<DatasetEntry>();
    slot->last_used = ++dataset_tick_;
    entry = slot;
    // Evict by resident bytes, least-recently-used first, never the entry
    // this request is about to use (so one dataset larger than the whole
    // budget still serves — the budget degrades to "keep only the current
    // dataset", not "fail the request"). Entries still loading weigh 0
    // and are protected by their holders' shared_ptr either way.
    size_t resident = 0;
    // lint: unordered-ok (order-independent byte sum)
    for (const auto& [key, value] : datasets_) {
      resident += value->bytes.load(std::memory_order_relaxed);
    }
    while (resident > options_.dataset_cache_bytes && datasets_.size() > 1) {
      auto victim = datasets_.end();
      // lint: unordered-ok (min-scan with total-order tie-break)
      for (auto it = datasets_.begin(); it != datasets_.end(); ++it) {
        if (it->second == entry) continue;  // never evict the fresh lookup
        if (victim == datasets_.end() ||
            it->second->last_used < victim->second->last_used ||
            (it->second->last_used == victim->second->last_used &&
             it->first < victim->first)) {
          victim = it;
        }
      }
      if (victim == datasets_.end()) break;
      resident -= victim->second->bytes.load(std::memory_order_relaxed);
      datasets_.erase(victim);  // holders of the shared entry keep it alive
    }
  }

  // Load outside the map lock; concurrent requests for the same path block
  // here (not on the map) and exactly one performs the load.
  std::call_once(entry->once, [&entry, &path, threads, this]() {
    Result<Dataset> loaded = LoadDataset(path, threads);
    if (!loaded.ok()) {
      entry->status = loaded.status();
      return;
    }
    entry->dataset = std::make_shared<Dataset>(loaded.MoveValue());
    entry->restrictions = std::make_unique<RestrictionCache>(
        entry->dataset.get(), options_.restriction_cache_capacity);
    entry->fingerprint = DatasetFingerprint(*entry->dataset);
    entry->bytes.store(ApproxDatasetBytes(*entry->dataset),
                       std::memory_order_relaxed);
  });
  return entry;
}

void ServeEngine::Respond(const Admitted& admitted, ServeResponse response) {
  response.id = admitted.request.id;
  response.latency_ms = MillisSince(admitted.admitted_at);
  // Account before the callback, in one critical section: the request
  // moves from in-flight to completed atomically (the stats invariant
  // holds at every instant), and a caller woken by its callback (e.g.
  // ExecuteBlocking) already observes itself counted. The callback slot
  // gauge keeps Drain() honest: in-flight may be zero while the last
  // callback is still writing its response line.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    switch (response.outcome) {
      case ServeResponse::Outcome::kOk:
        ++completed_;
        if (response.stop_reason == StopReason::kDeadline) {
          ++deadline_degraded_;
        }
        break;
      case ServeResponse::Outcome::kError:
        ++completed_;
        ++errors_;
        break;
      case ServeResponse::Outcome::kRejected:
        // Admission rejections never reach Respond; kept for completeness.
        ++completed_;
        break;
    }
    --in_flight_;
    ++callbacks_outstanding_;
  }
  admitted.callback(response);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    --callbacks_outstanding_;
  }
  drain_cv_.notify_all();
}

void ServeEngine::Execute(Admitted admitted) {
  const ServeRequest& request = admitted.request;

  const std::shared_ptr<DatasetEntry> entry =
      DatasetFor(request.claims_path, std::max(1, request.threads));
  if (!entry->status.ok()) {
    ServeResponse response;
    response.outcome = ServeResponse::Outcome::kError;
    response.status = entry->status;
    Respond(admitted, response);
    return;
  }

  // Resolve the DatasetLike this request actually runs on: the whole
  // dataset or a cached zero-copy restriction. The fingerprint is taken
  // over that exact data, so restrictions get their own cache identity.
  std::shared_ptr<const DatasetView> view;
  const DatasetLike* data = entry->dataset.get();
  uint64_t fingerprint = entry->fingerprint;
  if (!request.attributes.empty()) {
    view = entry->restrictions->Attributes(request.attributes);
    data = view.get();
    fingerprint = DatasetFingerprint(*view);
  }
  const ResultCacheKey key{fingerprint, ServeOptionsHash(request)};

  if (!request.no_cache) {
    if (std::shared_ptr<const TruthDiscoveryResult> hit = results_.Get(key)) {
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++cache_hits_;
      }
      ServeResponse response;
      response.outcome = ServeResponse::Outcome::kOk;
      response.stop_reason = hit->stop_reason;
      response.items = hit->predicted.size();
      response.iterations = hit->iterations;
      response.cached = true;
      Respond(admitted, response);
      return;
    }

    // Coalescing: an identical execution already in flight adopts this
    // request as a follower — one run, N responses. The follower's worker
    // slot frees immediately; its admission slot is released when the
    // leader responds on its behalf.
    {
      std::lock_guard<std::mutex> lock(flights_mutex_);
      auto [it, inserted] = flights_.try_emplace(
          std::make_pair(key.fingerprint, key.options_hash));
      if (!inserted) {
        {
          std::lock_guard<std::mutex> state_lock(state_mutex_);
          ++coalesced_;
        }
        it->second->followers.push_back(std::move(admitted));
        return;
      }
      it->second = std::make_shared<Flight>();
    }
  }

  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++executions_;
  }

  // Deadline propagation: queue wait already spent part of the budget;
  // only the remainder reaches the guard. An exhausted budget still runs
  // one guarded iterate (kExpiredDeadlineMs) — exit-3 semantics, a labeled
  // best-so-far answer rather than a stall or an unbounded run.
  RunBudget budget;
  if (admitted.deadline_ms > 0) {
    const double remaining =
        admitted.deadline_ms - MillisSince(admitted.admitted_at);
    budget.deadline_ms = std::max(remaining, kExpiredDeadlineMs);
  }
  if (request.iteration_budget > 0) {
    budget.max_total_iterations = request.iteration_budget;
  }
  const RunGuard guard(budget, &cancel_);

  // Synthetic-work hook for saturation tests and the load generator:
  // cancellation-aware, deadline-aware sleep in small slices.
  if (options_.execution_delay_ms > 0) {
    const Clock::time_point start = Clock::now();
    while (MillisSince(start) < options_.execution_delay_ms) {
      if (guard.ShouldStop().has_value()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // The request's threads= is the width of the whole execution: TD-AC's
  // sweep and groups, and the base algorithm's blocks (default 1, serial).
  const RunWidthScope width(std::max(1, request.threads));
  Result<TruthDiscoveryResult> outcome = [&]() -> Result<TruthDiscoveryResult> {
    TDAC_ASSIGN_OR_RETURN(std::unique_ptr<TruthDiscovery> base,
                          MakeAlgorithm(request.algorithm));
    if (request.mode == ServeMode::kTdac) {
      TdacOptions tdac_options;
      tdac_options.base = base.get();
      tdac_options.threads = std::max(1, request.threads);
      // Warm restarts: with a checkpoint directory configured, the run
      // snapshots into a slot named by its cache identity and resumes
      // from it. The slot is unique among concurrent executions because
      // identical cacheable requests coalesce onto one leader; no-cache
      // requests skip coalescing, so they must skip checkpointing too.
      std::unique_ptr<Checkpointer> checkpointer;
      if (!options_.checkpoint_dir.empty() && !request.no_cache) {
        CheckpointOptions ckpt_options;
        ckpt_options.dir = options_.checkpoint_dir;
        ckpt_options.interval_ms = options_.checkpoint_interval_ms;
        ckpt_options.resume = true;
        checkpointer = std::make_unique<Checkpointer>(ckpt_options);
        tdac_options.checkpointer = checkpointer.get();
        tdac_options.checkpoint_prefix =
            "serve-" + Hex16(key.fingerprint) + "-" + Hex16(key.options_hash);
      }
      const Tdac tdac_algo(tdac_options);
      return tdac_algo.Discover(*data, guard);
    }
    return base->Discover(*data, guard);
  }();

  // Finish the flight first so late duplicates start a fresh run instead
  // of attaching to a completed one.
  std::vector<Admitted> followers;
  if (!request.no_cache) {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    auto it = flights_.find(std::make_pair(key.fingerprint, key.options_hash));
    if (it != flights_.end()) {
      followers = std::move(it->second->followers);
      flights_.erase(it);
    }
  }

  ServeResponse response;
  if (!outcome.ok()) {
    response.outcome = ServeResponse::Outcome::kError;
    response.status = outcome.status();
  } else {
    response.outcome = ServeResponse::Outcome::kOk;
    response.stop_reason = outcome->stop_reason;
    response.items = outcome->predicted.size();
    response.iterations = outcome->iterations;
    // Only clean results are cached: a degraded best-so-far iterate under
    // one budget is not the answer under another.
    if (!request.no_cache && !outcome->degraded()) {
      results_.Put(key, std::make_shared<const TruthDiscoveryResult>(
                            std::move(outcome).value()));
    }
  }

  Respond(admitted, response);
  for (const Admitted& follower : followers) {
    ServeResponse shared = response;
    shared.coalesced = true;
    Respond(follower, shared);
  }
}

ServeEngine::Stats ServeEngine::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    out.submitted = submitted_;
    out.rejected = rejected_;
    out.completed = completed_;
    out.executions = executions_;
    out.cache_hits = cache_hits_;
    out.coalesced = coalesced_;
    out.deadline_degraded = deadline_degraded_;
    out.errors = errors_;
    out.in_flight = in_flight_;
  }
  out.pool_queued = pool_->queued();
  out.pool_active = pool_->active();
  {
    std::lock_guard<std::mutex> lock(datasets_mutex_);
    out.dataset_cache_live = datasets_.size();
    // lint: unordered-ok (order-independent byte sum)
    for (const auto& [key, value] : datasets_) {
      out.dataset_cache_bytes += value->bytes.load(std::memory_order_relaxed);
    }
  }
  out.dataset_cache_budget = options_.dataset_cache_bytes;
  out.result_cache = results_.stats();
  return out;
}

}  // namespace tdac
