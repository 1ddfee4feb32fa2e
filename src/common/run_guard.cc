#include "common/run_guard.h"

#include <cmath>
#include <string>

namespace tdac {

std::string_view StopReasonToString(StopReason reason) {
  switch (reason) {
    case StopReason::kConverged:
      return "Converged";
    case StopReason::kMaxIterations:
      return "MaxIterations";
    case StopReason::kDeadline:
      return "Deadline";
    case StopReason::kCancelled:
      return "Cancelled";
    case StopReason::kNonFinite:
      return "NonFinite";
    case StopReason::kOverloaded:
      return "Overloaded";
  }
  return "Unknown";
}

bool IsDegraded(StopReason reason) {
  return reason == StopReason::kDeadline || reason == StopReason::kCancelled ||
         reason == StopReason::kNonFinite ||
         reason == StopReason::kOverloaded;
}

StopReason CombineStopReasons(StopReason a, StopReason b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

RunGuard::RunGuard(const RunBudget& budget, const CancellationToken* token)
    : token_(token) {
  if (budget.deadline_ms > 0.0) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        budget.deadline_ms));
  }
  if (budget.max_total_iterations > 0) {
    max_iterations_ = budget.max_total_iterations;
  }
  active_ = has_deadline_ || max_iterations_ > 0 || token_ != nullptr;
}

RunGuard::RunGuard(const CancellationToken* token) : token_(token) {
  active_ = token_ != nullptr;
}

const RunGuard& RunGuard::None() {
  static const RunGuard none;
  return none;
}

std::optional<StopReason> RunGuard::ShouldStop() const {
  if (!active_) return std::nullopt;
  if (token_ != nullptr && token_->cancelled()) {
    return StopReason::kCancelled;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    return StopReason::kDeadline;
  }
  return std::nullopt;
}

std::optional<StopReason> RunGuard::OnIteration() const {
  if (!active_) return std::nullopt;
  if (auto stop = ShouldStop()) return stop;
  if (max_iterations_ > 0 &&
      iterations_.fetch_add(1, std::memory_order_relaxed) >= max_iterations_) {
    return StopReason::kMaxIterations;
  }
  return std::nullopt;
}

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

Status CheckFinite(const std::vector<double>& values, std::string_view label) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument(std::string(label) +
                                     " contains a non-finite value at index " +
                                     std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace tdac
