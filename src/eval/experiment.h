#ifndef TDAC_EVAL_EXPERIMENT_H_
#define TDAC_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "data/ground_truth.h"
#include "eval/metrics.h"
#include "td/truth_discovery.h"

namespace tdac {

/// \brief One row of a paper-style performance table.
struct ExperimentRow {
  std::string algorithm;
  PerformanceMetrics metrics;

  /// Wall-clock seconds of the Discover call.
  double seconds = 0.0;

  /// Outer iterations; negative means "not applicable" (rendered "-").
  int iterations = 0;

  /// Why the run stopped; anything other than kConverged/kMaxIterations
  /// marks the row as degraded (deadline, cancellation, or numeric rail).
  StopReason stop_reason = StopReason::kConverged;

  bool degraded() const { return IsDegraded(stop_reason); }
};

/// The row of a run that already happened: `algorithm` produced `result`
/// on `data` in `seconds` of wall clock; evaluated against `gold`.
[[nodiscard]]
ExperimentRow MakeExperimentRow(const TruthDiscovery& algorithm,
                                const TruthDiscoveryResult& result,
                                double seconds, const Dataset& data,
                                const GroundTruth& gold);

/// Runs `algorithm` on `data`, times it, and evaluates against `gold`.
/// An active `guard` is threaded through the run; a guarded row that
/// tripped is still evaluated (best-so-far result) but labeled degraded.
[[nodiscard]]
Result<ExperimentRow> RunExperiment(const TruthDiscovery& algorithm,
                                    const Dataset& data,
                                    const GroundTruth& gold,
                                    const RunGuard& guard = RunGuard::None());

/// Runs several algorithms on the same dataset; any individual failure
/// fails the batch.
[[nodiscard]] Result<std::vector<ExperimentRow>> RunExperiments(
    const std::vector<const TruthDiscovery*>& algorithms, const Dataset& data,
    const GroundTruth& gold);

}  // namespace tdac

#endif  // TDAC_EVAL_EXPERIMENT_H_
