// End-to-end tests across modules: generator -> algorithms -> TD-AC ->
// evaluation, mirroring the paper's experimental pipeline at reduced scale.

#include <gtest/gtest.h>

#include "data/dataset_io.h"
#include "eval/experiment.h"
#include "gen/exam.h"
#include "gen/flights.h"
#include "gen/synthetic.h"
#include "partition/gen_partition.h"
#include "partition/partition_metrics.h"
#include "td/accu.h"
#include "td/majority_vote.h"
#include "td/registry.h"
#include "td/truth_finder.h"
#include "tdac/tdac.h"

namespace tdac {
namespace {

/// A reduced DS1-style dataset: strongly correlated groups, adversarial
/// level 0 sources.
GeneratedData MiniDs1(uint64_t seed = 3) {
  auto config = PaperSyntheticConfig(1, seed).MoveValue();
  config.num_objects = 120;  // reduced from 1000 to keep the test fast
  auto data = GenerateSynthetic(config);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data.MoveValue();
}

TEST(IntegrationTest, TdacBeatsPlainAccuOnDs1StyleData) {
  GeneratedData data = MiniDs1();
  Accu accu;
  TdacOptions opts;
  opts.base = &accu;
  Tdac tdac(opts);

  auto accu_row = RunExperiment(accu, data.dataset, data.truth);
  auto tdac_row = RunExperiment(tdac, data.dataset, data.truth);
  ASSERT_TRUE(accu_row.ok());
  ASSERT_TRUE(tdac_row.ok());
  // The headline claim of the paper: partitioning helps under structural
  // correlation.
  EXPECT_GT(tdac_row->metrics.accuracy, accu_row->metrics.accuracy - 0.01);
  EXPECT_GT(tdac_row->metrics.accuracy, 0.8);
}

TEST(IntegrationTest, TdacCoarsensButNeverSplitsPlantedGroupsOnDs1) {
  // The paper's own Table 5 shows TD-AC merging DS1's singleton groups
  // ([(1,2),(4,6),(3,5)] vs planted [(1,2),(4,6),(3),(5)]): the recovered
  // partition may be coarser than the planted one, but genuinely correlated
  // attributes must never be split apart.
  GeneratedData data = MiniDs1(8);
  Accu accu;
  TdacOptions opts;
  opts.base = &accu;
  Tdac tdac(opts);
  auto report = tdac.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(report.ok());
  for (const auto& planted_group : data.planted.groups()) {
    int found_group = report->partition.GroupOf(planted_group.front());
    for (AttributeId a : planted_group) {
      EXPECT_EQ(report->partition.GroupOf(a), found_group)
          << "planted group split: found "
          << report->partition.ToString() << " planted "
          << data.planted.ToString();
    }
  }
  auto agreement = ComparePartitions(report->partition, data.planted);
  ASSERT_TRUE(agreement.ok());
  EXPECT_GT(agreement->rand_index, 0.6);
}

TEST(IntegrationTest, TdacIsFarCheaperThanBruteForce) {
  GeneratedData data = MiniDs1(5);
  Accu accu;

  TdacOptions topts;
  topts.base = &accu;
  Tdac tdac(topts);

  GenPartitionOptions gopts;
  gopts.base = &accu;
  gopts.weighting = WeightingFunction::kAvg;
  GenPartitionAlgorithm brute(gopts);

  auto tdac_row = RunExperiment(tdac, data.dataset, data.truth);
  auto brute_row = RunExperiment(brute, data.dataset, data.truth);
  ASSERT_TRUE(tdac_row.ok());
  ASSERT_TRUE(brute_row.ok());
  // Brute force explores 203 partitions; TD-AC runs |A|-2 k-means sweeps
  // plus one pass per group. It must be significantly faster.
  EXPECT_LT(tdac_row->seconds, brute_row->seconds);
}

TEST(IntegrationTest, AllStandardAlgorithmsRunOnExamData) {
  ExamConfig config;
  config.num_questions = 32;
  config.seed = 12;
  auto exam = GenerateExam(config);
  ASSERT_TRUE(exam.ok());
  for (const std::string& name : RegisteredAlgorithms()) {
    auto algo = MakeAlgorithm(name);
    ASSERT_TRUE(algo.ok());
    auto row = RunExperiment(**algo, exam->dataset, exam->truth);
    ASSERT_TRUE(row.ok()) << name;
    EXPECT_GT(row->metrics.accuracy, 0.3) << name;
  }
}

TEST(IntegrationTest, TdacWithTruthFinderOnFlights) {
  auto flights = GenerateFlights(4);
  ASSERT_TRUE(flights.ok());
  TruthFinder tf;
  TdacOptions opts;
  opts.base = &tf;
  Tdac tdac(opts);
  auto tf_row = RunExperiment(tf, flights->dataset, flights->truth);
  auto tdac_row = RunExperiment(tdac, flights->dataset, flights->truth);
  ASSERT_TRUE(tf_row.ok());
  ASSERT_TRUE(tdac_row.ok());
  // TD-AC must not fall apart on moderate-coverage multi-object data.
  EXPECT_GT(tdac_row->metrics.accuracy, tf_row->metrics.accuracy - 0.15);
}

TEST(IntegrationTest, DatasetSurvivesIoRoundTripWithIdenticalResults) {
  GeneratedData data = MiniDs1(6);
  std::string csv = DatasetToCsv(data.dataset);
  auto loaded = DatasetFromCsv(csv);
  ASSERT_TRUE(loaded.ok());
  MajorityVote mv;
  auto original = mv.Discover(data.dataset);
  auto reloaded = mv.Discover(*loaded);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(original->predicted.size(), reloaded->predicted.size());
  // Interning order is preserved by serialization, so ids and predictions
  // must agree item by item.
  ASSERT_EQ(original->predicted.keys, reloaded->predicted.keys);
  EXPECT_EQ(original->predicted.value_ids, reloaded->predicted.value_ids);
  for (size_t i = 0; i < original->predicted.size(); ++i) {
    EXPECT_EQ(original->predicted.ValueAt(i, data.dataset),
              reloaded->predicted.ValueAt(i, *loaded));
  }
}

TEST(IntegrationTest, OracleBruteForceUpperBoundsTdac) {
  GeneratedData data = MiniDs1(9);
  Accu accu;
  GenPartitionOptions gopts;
  gopts.base = &accu;
  gopts.weighting = WeightingFunction::kOracle;
  gopts.oracle_truth = &data.truth;
  GenPartitionAlgorithm oracle(gopts);

  TdacOptions topts;
  topts.base = &accu;
  Tdac tdac(topts);

  auto oracle_row = RunExperiment(oracle, data.dataset, data.truth);
  auto tdac_row = RunExperiment(tdac, data.dataset, data.truth);
  ASSERT_TRUE(oracle_row.ok());
  ASSERT_TRUE(tdac_row.ok());
  EXPECT_GE(oracle_row->metrics.accuracy + 1e-9, tdac_row->metrics.accuracy);
}

}  // namespace
}  // namespace tdac
