#ifndef TDAC_COMMON_PARALLEL_H_
#define TDAC_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "common/run_guard.h"
#include "common/thread_pool.h"

namespace tdac {

/// \brief Tuning knobs for ParallelFor.
struct ParallelForOptions {
  /// Pool to fan out on; nullptr means ThreadPool::Global().
  ThreadPool* pool = nullptr;

  /// Caps the number of threads working on this loop (caller included).
  /// 0 means the run width (CurrentRunWidth()); 1 forces the exact serial
  /// path. Either way the pool's size is the ceiling.
  int max_parallelism = 0;

  /// Loops with fewer iterations than this stay serial (fan-out overhead
  /// is not worth paying for tiny trip counts).
  size_t min_parallel_iterations = 2;

  /// Optional run guard (not owned). When it trips (cancellation or
  /// deadline), remaining iterations are *skipped*: the loop still returns
  /// only after every index was either run or skipped, so slot-write
  /// determinism is preserved for the iterations that did run. Callers that
  /// set a guard must tolerate untouched output slots and are expected to
  /// re-check the guard after the loop to label the result degraded.
  const RunGuard* guard = nullptr;
};

/// \brief Runs `body(i)` for every i in [0, n), fanning the iterations out
/// over a thread pool. Returns after *all* iterations have completed.
///
/// Scheduling is dynamic (an atomic work counter), so iteration-to-thread
/// placement is nondeterministic — but every iteration runs exactly once,
/// and the caller thread participates as a worker. Determinism is the
/// caller's contract: make each iteration independent (own RNG seeded by
/// `i`, writes only to slot `i` of a pre-sized output) and reduce the
/// outputs in index order after the loop; results are then bit-identical
/// at every thread count, including 1.
///
/// Nesting-safe: a body may itself call ParallelFor. Helper tasks that the
/// pool cannot schedule (all workers busy) are simply never needed — the
/// caller finishes the iterations itself and stale helpers no-op later —
/// so no cyclic wait can arise. Every body runs with the loop's width as
/// its run width, so a loop it starts with the default `max_parallelism`
/// is no wider than this one.
///
/// A loop whose width resolves to 1 (or with fewer than
/// `min_parallel_iterations` iterations) runs inline and leaves the pool
/// alone: a serial run never starts the global pool.
///
/// Exceptions thrown by `body` do not cancel remaining iterations (every
/// index still runs, keeping side effects thread-count-invariant); the
/// first-thrown exception is rethrown on the calling thread after the loop
/// drains. With n == 0 the call is a no-op.
void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                 const ParallelForOptions& options = {});

/// Resolves a user-facing thread-count knob: values > 0 pass through
/// (clamped to ThreadPool::kMaxThreads), 0 or negative yield the process
/// default (TDAC_THREADS env override, else hardware concurrency).
int EffectiveThreadCount(int requested);

/// The width this thread's loops default to: the innermost RunWidthScope,
/// or inside a ParallelFor body the width of that loop; outside both, the
/// process default (EffectiveThreadCount(0)).
int CurrentRunWidth();

/// \brief Sets the run width for the code on this thread until the scope
/// ends: the one place a resolved thread count (`--threads`, a request's
/// `threads=`, TdacOptions::threads) reaches the loops of the base runs it
/// calls. `threads` > 0 sets that width (clamped like EffectiveThreadCount);
/// 0 or negative keeps the width the caller already runs at. Scopes nest
/// and restore the previous width on exit.
class RunWidthScope {
 public:
  explicit RunWidthScope(int threads);
  ~RunWidthScope();

  RunWidthScope(const RunWidthScope&) = delete;
  RunWidthScope& operator=(const RunWidthScope&) = delete;

 private:
  int previous_;
};

}  // namespace tdac

#endif  // TDAC_COMMON_PARALLEL_H_
