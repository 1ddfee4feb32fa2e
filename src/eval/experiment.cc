#include "eval/experiment.h"

#include "common/timer.h"

namespace tdac {

ExperimentRow MakeExperimentRow(const TruthDiscovery& algorithm,
                                const TruthDiscoveryResult& result,
                                double seconds, const Dataset& data,
                                const GroundTruth& gold) {
  ExperimentRow row;
  row.algorithm = std::string(algorithm.name());
  row.seconds = seconds;
  row.iterations = result.iterations;
  row.stop_reason = result.stop_reason;
  row.metrics = Evaluate(data, result.predicted, gold);
  return row;
}

Result<ExperimentRow> RunExperiment(const TruthDiscovery& algorithm,
                                    const Dataset& data,
                                    const GroundTruth& gold,
                                    const RunGuard& guard) {
  WallTimer timer;
  TDAC_ASSIGN_OR_RETURN(TruthDiscoveryResult result,
                        algorithm.Discover(data, guard));
  return MakeExperimentRow(algorithm, result, timer.ElapsedSeconds(), data,
                           gold);
}

Result<std::vector<ExperimentRow>> RunExperiments(
    const std::vector<const TruthDiscovery*>& algorithms, const Dataset& data,
    const GroundTruth& gold) {
  std::vector<ExperimentRow> rows;
  rows.reserve(algorithms.size());
  for (const TruthDiscovery* algorithm : algorithms) {
    TDAC_ASSIGN_OR_RETURN(ExperimentRow row,
                          RunExperiment(*algorithm, data, gold));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace tdac
