#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

namespace tdac {

namespace {

/// This thread's run width; 0 when no scope or loop set one.
thread_local int t_run_width = 0;

/// State shared between the caller and the helper tasks of one loop.
/// Held by shared_ptr because helpers may outlive the ParallelFor call
/// (a helper that never got scheduled runs after the caller returned,
/// finds no work left, and exits).
struct LoopState {
  LoopState(size_t n, int loop_width) : total(n), width(loop_width) {}

  const size_t total;
  /// The run width of every body of this loop.
  const int width;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};

  std::mutex mutex;
  std::condition_variable all_done;
  std::exception_ptr first_error;  // guarded by mutex

  const std::function<void(size_t)>* body = nullptr;
  const RunGuard* guard = nullptr;

  /// Claims and runs iterations until the counter is exhausted. When the
  /// guard trips, claimed iterations are skipped but still counted as done
  /// so the caller's completion wait terminates.
  void Work() {
    const RunWidthScope scope(width);
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      try {
        if (guard == nullptr || !guard->ShouldStop()) (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        // Lock so the notify cannot race past the caller's wait check.
        std::lock_guard<std::mutex> lock(mutex);
        all_done.notify_all();
      }
    }
  }
};

}  // namespace

void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                 const ParallelForOptions& options) {
  if (n == 0) return;
  const int requested = options.max_parallelism > 0
                            ? EffectiveThreadCount(options.max_parallelism)
                            : CurrentRunWidth();
  // A loop that runs inline leaves the pool alone, so a serial caller (a
  // one-chunk load, a threads=1 run) never starts the global pool.
  ThreadPool* pool = nullptr;
  int width = requested;
  if (n >= options.min_parallel_iterations && requested > 1) {
    pool = options.pool != nullptr ? options.pool : &ThreadPool::Global();
    width = std::min(requested, pool->num_threads());
  }
  const RunGuard* guard =
      options.guard != nullptr && options.guard->active() ? options.guard
                                                          : nullptr;
  if (pool == nullptr || width <= 1 || pool->num_workers() == 0) {
    // Same contract as the fan-out: a throw does not stop later indices.
    const RunWidthScope scope(width);
    std::exception_ptr first_error;
    for (size_t i = 0; i < n; ++i) {
      if (guard != nullptr && guard->ShouldStop()) break;
      try {
        body(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  auto state = std::make_shared<LoopState>(n, width);
  state->body = &body;
  state->guard = guard;
  // The caller is one worker; helpers never outnumber remaining iterations.
  const size_t helpers =
      std::min<size_t>(static_cast<size_t>(width) - 1, n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    // Fire-and-forget: completion is tracked by the done-counter, not by
    // futures, so the caller never blocks on a helper the pool cannot
    // schedule (which is what makes nested ParallelFor deadlock-free).
    pool->Submit([state]() { state->Work(); });
  }
  state->Work();

  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->all_done.wait(lock, [&]() {
      return state->done.load(std::memory_order_acquire) == state->total;
    });
  }
  // `body` lives on the caller's frame: helpers must be done with it here.
  // They are — done == total implies every claimed iteration finished, and
  // unscheduled helpers only touch `state` (kept alive by shared_ptr).
  if (state->first_error) std::rethrow_exception(state->first_error);
}

int EffectiveThreadCount(int requested) {
  if (requested > 0) return std::min(requested, ThreadPool::kMaxThreads);
  return ThreadPool::DefaultThreadCount();
}

int CurrentRunWidth() {
  return t_run_width > 0 ? t_run_width : ThreadPool::DefaultThreadCount();
}

RunWidthScope::RunWidthScope(int threads) : previous_(t_run_width) {
  if (threads > 0) t_run_width = EffectiveThreadCount(threads);
}

RunWidthScope::~RunWidthScope() { t_run_width = previous_; }

}  // namespace tdac
