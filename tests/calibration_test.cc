#include "eval/calibration.h"

#include <gtest/gtest.h>

#include "gen/synthetic.h"
#include "td/accu.h"
#include "td/majority_vote.h"
#include "test_util.h"

namespace tdac {
namespace {

TEST(CalibrationTest, PerfectlyConfidentAndCorrectHasZeroEce) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(6, &truth);
  TruthDiscoveryResult result;
  for (uint64_t key : d.DataItems()) {
    const Value value = *truth.Get(ObjectFromKey(key), AttributeFromKey(key));
    result.predicted.Add(key, d.value_dict().Find(value), 1.0);
  }
  auto report = EvaluateCalibration(d, result, truth);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->expected_calibration_error, 0.0, 1e-9);
  EXPECT_EQ(report->items_evaluated, d.DataItems().size());
}

TEST(CalibrationTest, OverconfidentWrongPredictionsScoreHighEce) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(6, &truth);
  TruthDiscoveryResult result;
  for (uint64_t key : d.DataItems()) {
    // Predict the bad source's value with full confidence.
    const Value value = Value(int64_t{200 + AttributeFromKey(key)});
    result.predicted.Add(key, d.value_dict().Find(value), 0.99);
  }
  auto report = EvaluateCalibration(d, result, truth);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->expected_calibration_error, 0.9);
}

TEST(CalibrationTest, BinsPartitionTheItems) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(8, &truth);
  TruthDiscoveryResult result;
  double conf = 0.05;
  for (uint64_t key : d.DataItems()) {
    const Value value = *truth.Get(ObjectFromKey(key), AttributeFromKey(key));
    result.predicted.Add(key, d.value_dict().Find(value), conf);
    conf += 0.1;
  }
  auto report = EvaluateCalibration(d, result, truth, 10);
  ASSERT_TRUE(report.ok());
  size_t total = 0;
  for (const auto& bin : report->bins) total += bin.count;
  EXPECT_EQ(total, report->items_evaluated);
  EXPECT_EQ(report->bins.size(), 10u);
}

TEST(CalibrationTest, ConfidenceOneLandsInTopBin) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(3, &truth);
  TruthDiscoveryResult result;
  for (uint64_t key : d.DataItems()) {
    const Value value = *truth.Get(ObjectFromKey(key), AttributeFromKey(key));
    result.predicted.Add(key, d.value_dict().Find(value), 1.0);
  }
  auto report = EvaluateCalibration(d, result, truth, 5);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->bins.back().count, d.DataItems().size());
}

TEST(CalibrationTest, RejectsDegenerateInput) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(3, &truth);
  TruthDiscoveryResult empty;
  EXPECT_FALSE(EvaluateCalibration(d, empty, truth).ok());
  TruthDiscoveryResult some;
  const ValueId value = d.value_dict().Find(*truth.Get(0, 0));
  some.predicted.Add(ObjectAttrKey(0, 0), value, 0.5);
  EXPECT_FALSE(EvaluateCalibration(d, some, truth, 0).ok());
}

TEST(CalibrationTest, RealAlgorithmProducesReasonableEce) {
  auto config = PaperSyntheticConfig(3, 5).MoveValue();
  config.num_objects = 100;
  auto data = GenerateSynthetic(config).MoveValue();
  Accu accu;
  auto result = accu.Discover(data.dataset).MoveValue();
  auto report = EvaluateCalibration(data.dataset, result, data.truth);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->expected_calibration_error, 0.0);
  EXPECT_LE(report->expected_calibration_error, 1.0);
  EXPECT_EQ(report->items_evaluated, data.dataset.DataItems().size());
}

}  // namespace
}  // namespace tdac
