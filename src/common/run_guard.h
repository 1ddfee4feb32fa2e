#ifndef TDAC_COMMON_RUN_GUARD_H_
#define TDAC_COMMON_RUN_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tdac {

/// \brief Why a (possibly guarded) run stopped.
///
/// The first two are *clean* outcomes — the algorithm itself decided to
/// stop — and leave results exactly as they were before run guards
/// existed. The last three are *degraded* outcomes: the run was cut short
/// by a budget, a cancellation, or the numeric rails, and the attached
/// result is the best answer available at that point, never silent
/// garbage (see docs/robustness.md for the full contract).
enum class StopReason {
  /// The convergence test fired (or the algorithm is single-pass).
  kConverged = 0,
  /// The per-algorithm iteration cap or the guard's global iteration
  /// budget ran out before convergence.
  kMaxIterations = 1,
  /// The wall-clock deadline of the RunBudget expired.
  kDeadline = 2,
  /// The CancellationToken was cancelled (e.g. SIGINT in the CLI).
  kCancelled = 3,
  /// A non-finite value was caught by the numeric rails; the result was
  /// rolled back to the last finite iterate and/or sanitized.
  kNonFinite = 4,
  /// The request was shed by admission control before any work ran: a
  /// serving queue at capacity rejects instead of queueing unboundedly
  /// (src/serve). There is no best-so-far result behind this reason —
  /// rejection is immediate, so retrying later is always safe.
  kOverloaded = 5,
};

/// "Converged", "MaxIterations", "Deadline", "Cancelled", "NonFinite",
/// "Overloaded".
std::string_view StopReasonToString(StopReason reason);

/// True for the degraded outcomes (kDeadline, kCancelled, kNonFinite,
/// kOverloaded).
bool IsDegraded(StopReason reason);

/// The more severe of the two reasons (enum order doubles as severity),
/// used when merging per-group partial results into one aggregate.
StopReason CombineStopReasons(StopReason a, StopReason b);

/// \brief Cooperative, thread-safe cancellation flag.
///
/// Producers call Cancel() (async-signal-safe: a lock-free atomic store,
/// so a SIGINT handler may call it directly); consumers poll cancelled()
/// at loop boundaries via RunGuard::ShouldStop(). Cancellation is sticky
/// until Reset().
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }
  void Reset() noexcept { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// \brief Resource limits for one run. Zero/negative fields mean
/// "unlimited".
struct RunBudget {
  /// Wall-clock deadline, measured from RunGuard construction.
  double deadline_ms = 0.0;

  /// Global cap on outer iterations across the whole run — shared by every
  /// fixed-point loop the guard is threaded through (a TD-AC run with 5
  /// groups spends from one pool, not 5).
  int64_t max_total_iterations = 0;

  bool unlimited() const {
    return deadline_ms <= 0.0 && max_total_iterations <= 0;
  }
};

/// \brief A run's guard rail: deadline + iteration budget + cancellation.
///
/// One RunGuard is created per top-level run and threaded (by const
/// reference) through every iterative loop, ParallelFor, and nested base
/// run. All checks are thread-safe; the iteration budget is a shared
/// atomic counter. A default-constructed guard (or RunGuard::None()) never
/// trips and short-circuits every check, so unguarded runs behave — and
/// cost — exactly as before the guard layer existed.
///
/// Checking is *cooperative*: loops call OnIteration() once per outer
/// iteration (or ShouldStop() at phase boundaries) and stop with the
/// returned StopReason, keeping their best-so-far state. By convention the
/// first iteration of a loop is exempt, so a guarded run always produces a
/// usable (if degraded) result rather than an empty one.
class RunGuard {
 public:
  /// An unguarded guard: never trips.
  RunGuard() = default;

  /// Guard with a budget (deadline measured from now) and an optional
  /// cancellation token. The token is not owned and must outlive the guard.
  explicit RunGuard(const RunBudget& budget,
                    const CancellationToken* token = nullptr);

  /// Cancellation-only guard.
  explicit RunGuard(const CancellationToken* token);

  RunGuard(const RunGuard&) = delete;
  RunGuard& operator=(const RunGuard&) = delete;

  /// Shared never-trips instance for unguarded entry points.
  static const RunGuard& None();

  /// Whether any limit or token is configured.
  bool active() const { return active_; }

  /// Phase-boundary check: kCancelled if the token tripped, kDeadline if
  /// the deadline passed, std::nullopt to continue. Never trips on an
  /// inactive guard (and costs one branch).
  std::optional<StopReason> ShouldStop() const;

  /// Loop-boundary check: everything ShouldStop() checks, plus consumes
  /// one unit of the global iteration budget (kMaxIterations once spent).
  std::optional<StopReason> OnIteration() const;

  /// Iterations consumed so far via OnIteration().
  int64_t iterations_consumed() const {
    return iterations_.load(std::memory_order_relaxed);
  }

 private:
  bool active_ = false;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  int64_t max_iterations_ = 0;
  const CancellationToken* token_ = nullptr;
  mutable std::atomic<int64_t> iterations_{0};
};

/// Numeric rails: true when every element is finite (no NaN/±inf).
bool AllFinite(const std::vector<double>& values);

/// Status form of the rail for API boundaries: InvalidArgument naming
/// `label` and the offending index when a non-finite element is found.
[[nodiscard]] Status CheckFinite(const std::vector<double>& values,
                                 std::string_view label);

}  // namespace tdac

#endif  // TDAC_COMMON_RUN_GUARD_H_
