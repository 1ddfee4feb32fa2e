#include "eval/calibration.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace tdac {

Result<CalibrationReport> EvaluateCalibration(
    const Dataset& data, const TruthDiscoveryResult& result,
    const GroundTruth& gold, int num_bins) {
  if (num_bins < 1) {
    return Status::InvalidArgument("EvaluateCalibration: num_bins >= 1");
  }
  CalibrationReport report;
  report.bins.resize(static_cast<size_t>(num_bins));
  for (int b = 0; b < num_bins; ++b) {
    report.bins[static_cast<size_t>(b)].lower =
        static_cast<double>(b) / num_bins;
    report.bins[static_cast<size_t>(b)].upper =
        static_cast<double>(b + 1) / num_bins;
  }

  std::vector<double> conf_sum(static_cast<size_t>(num_bins), 0.0);
  std::vector<double> correct(static_cast<size_t>(num_bins), 0.0);
  // Predicted items come in key order, as DataItems() does; those of them
  // the data holds and the gold covers are evaluated.
  const Predictions& predicted = result.predicted;
  const std::vector<uint64_t>& items = data.DataItems();
  size_t row = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    const uint64_t key = predicted.keys[i];
    while (row < items.size() && items[row] < key) ++row;
    if (row == items.size() || items[row] != key) continue;
    const Value* g = gold.Get(ObjectFromKey(key), AttributeFromKey(key));
    if (g == nullptr) continue;
    double confidence = Clamp(predicted.confidences[i], 0.0, 1.0);
    int bin = std::min(num_bins - 1,
                       static_cast<int>(confidence * num_bins));
    auto& cb = report.bins[static_cast<size_t>(bin)];
    ++cb.count;
    conf_sum[static_cast<size_t>(bin)] += confidence;
    if (predicted.ValueAt(i, data) == *g) {
      correct[static_cast<size_t>(bin)] += 1.0;
    }
    ++report.items_evaluated;
  }
  if (report.items_evaluated == 0) {
    return Status::FailedPrecondition(
        "EvaluateCalibration: no evaluable items");
  }
  for (int b = 0; b < num_bins; ++b) {
    auto& cb = report.bins[static_cast<size_t>(b)];
    if (cb.count == 0) continue;
    cb.mean_confidence =
        conf_sum[static_cast<size_t>(b)] / static_cast<double>(cb.count);
    cb.empirical_accuracy =
        correct[static_cast<size_t>(b)] / static_cast<double>(cb.count);
    report.expected_calibration_error +=
        std::fabs(cb.empirical_accuracy - cb.mean_confidence) *
        static_cast<double>(cb.count) /
        static_cast<double>(report.items_evaluated);
  }
  return report;
}

}  // namespace tdac
