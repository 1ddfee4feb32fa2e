#include "tdac/tdac.h"

#include <sstream>

#include <gtest/gtest.h>

#include "common/checkpoint.h"
#include "eval/metrics.h"
#include "gen/exam.h"
#include "gen/synthetic.h"
#include "partition/partition_metrics.h"
#include "td/accu.h"
#include "td/majority_vote.h"
#include "test_util.h"

namespace tdac {
namespace {

GeneratedData Correlated(uint64_t seed = 11, int objects = 60) {
  SyntheticConfig config;
  config.num_objects = objects;
  config.num_sources = 8;
  config.planted_groups = {{0, 1, 2}, {3, 4, 5}};
  config.reliability_levels = {0.95, 0.15};
  config.num_false_values = 10;
  config.seed = seed;
  auto data = GenerateSynthetic(config);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data.MoveValue();
}

TEST(TdacTest, RecoversPlantedPartition) {
  GeneratedData data = Correlated();
  Accu base;
  TdacOptions opts;
  opts.base = &base;
  Tdac tdac(opts);
  auto report = tdac.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(report.ok());
  auto agreement = ComparePartitions(report->partition, data.planted);
  ASSERT_TRUE(agreement.ok());
  EXPECT_GT(agreement->adjusted_rand_index, 0.8)
      << "found " << report->partition.ToString() << " vs planted "
      << data.planted.ToString();
}

TEST(TdacTest, ImprovesOrMatchesBaseAccuracyOnCorrelatedData) {
  GeneratedData data = Correlated(23);
  Accu base;
  auto base_result = base.Discover(data.dataset);
  ASSERT_TRUE(base_result.ok());
  double base_acc =
      Evaluate(data.dataset, base_result->predicted, data.truth).accuracy;

  TdacOptions opts;
  opts.base = &base;
  Tdac tdac(opts);
  auto tdac_result = tdac.Discover(data.dataset);
  ASSERT_TRUE(tdac_result.ok());
  double tdac_acc =
      Evaluate(data.dataset, tdac_result->predicted, data.truth).accuracy;
  EXPECT_GE(tdac_acc + 0.02, base_acc);  // never much worse...
  EXPECT_GT(tdac_acc, 0.7);              // ...and absolutely decent
}

TEST(TdacTest, ReportsSingleIterationAndSweep) {
  GeneratedData data = Correlated();
  Accu base;
  TdacOptions opts;
  opts.base = &base;
  Tdac tdac(opts);
  auto report = tdac.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->result.iterations, 1);
  // Sweep covers k = 2 .. |A|-1 = 5.
  EXPECT_EQ(report->silhouette_by_k.size(), 4u);
  EXPECT_EQ(report->silhouette_by_k.front().first, 2);
  EXPECT_FALSE(report->fell_back_to_base);
  EXPECT_GE(report->chosen_k, 2);
}

TEST(TdacTest, PredictsEveryItem) {
  GeneratedData data = Correlated();
  MajorityVote base;
  TdacOptions opts;
  opts.base = &base;
  Tdac tdac(opts);
  auto r = tdac.Discover(data.dataset);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->predicted.size(), data.dataset.DataItems().size());
}

TEST(TdacTest, FallsBackWithTwoAttributes) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(2, &truth);
  MajorityVote base;
  TdacOptions opts;
  opts.base = &base;
  Tdac tdac(opts);
  auto report = tdac.DiscoverWithReport(d);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->fell_back_to_base);
  EXPECT_EQ(report->chosen_k, 1);
  EXPECT_EQ(report->result.predicted.size(), d.DataItems().size());
}

TEST(TdacTest, ParallelMatchesSerial) {
  GeneratedData data = Correlated(31);
  Accu base;
  TdacOptions serial_opts;
  serial_opts.base = &base;
  serial_opts.threads = 1;
  TdacOptions parallel_opts = serial_opts;
  parallel_opts.threads = 4;

  auto serial = Tdac(serial_opts).DiscoverWithReport(data.dataset);
  auto parallel = Tdac(parallel_opts).DiscoverWithReport(data.dataset);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->partition, parallel->partition);
  // Identical predictions item by item.
  EXPECT_EQ(serial->result.predicted.keys, parallel->result.predicted.keys);
  EXPECT_EQ(serial->result.predicted.value_ids,
            parallel->result.predicted.value_ids);
}

TEST(TdacTest, SparseAwareModeRuns) {
  SyntheticConfig config;
  config.num_objects = 40;
  config.num_sources = 8;
  config.planted_groups = {{0, 1, 2}, {3, 4, 5}};
  config.reliability_levels = {0.95, 0.15};
  config.coverage = 0.5;  // plenty of missing claims
  config.seed = 5;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  Accu base;
  TdacOptions opts;
  opts.base = &base;
  opts.sparse_aware = true;
  Tdac tdac(opts);
  auto report = tdac.DiscoverWithReport(data->dataset);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->result.predicted.size(),
            data->dataset.DataItems().size());
}

TEST(TdacTest, AgglomerativeBackendRecoversPartitionToo) {
  GeneratedData data = Correlated(47);
  Accu base;
  TdacOptions opts;
  opts.base = &base;
  opts.backend = ClusteringBackend::kAgglomerative;
  Tdac tdac(opts);
  auto report = tdac.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->fell_back_to_base);
  auto agreement = ComparePartitions(report->partition, data.planted);
  ASSERT_TRUE(agreement.ok());
  EXPECT_GT(agreement->adjusted_rand_index, 0.5)
      << "found " << report->partition.ToString();
  EXPECT_EQ(report->result.predicted.size(), data.dataset.DataItems().size());
}

TEST(TdacTest, AgglomerativeSparseAwareCombination) {
  SyntheticConfig config;
  config.num_objects = 40;
  config.num_sources = 8;
  config.planted_groups = {{0, 1, 2}, {3, 4, 5}};
  config.reliability_levels = {0.95, 0.15};
  config.coverage = 0.6;
  config.seed = 13;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  Accu base;
  TdacOptions opts;
  opts.base = &base;
  opts.backend = ClusteringBackend::kAgglomerative;
  opts.sparse_aware = true;
  Tdac tdac(opts);
  auto report = tdac.DiscoverWithReport(data->dataset);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->result.predicted.size(),
            data->dataset.DataItems().size());
}

// Characterization golden: the partition, chosen k, every silhouette bit
// and a digest of the serialized result, for both clustering backends with
// dense and sparse-aware distances, on a low-coverage synthetic dataset and
// a wide exam.
TEST(TdacTest, CharacterizationGolden) {
  SyntheticConfig sparse_config;
  sparse_config.num_objects = 40;
  sparse_config.num_sources = 8;
  sparse_config.planted_groups = {{0, 1, 2}, {3, 4, 5}};
  sparse_config.reliability_levels = {0.95, 0.15};
  sparse_config.coverage = 0.6;
  sparse_config.seed = 13;
  auto synthetic = GenerateSynthetic(sparse_config);
  ASSERT_TRUE(synthetic.ok()) << synthetic.status();
  ExamConfig exam_config;
  exam_config.num_questions = 32;
  exam_config.seed = 7;
  auto exam = GenerateExam(exam_config);
  ASSERT_TRUE(exam.ok()) << exam.status();

  Accu base;
  const std::vector<std::pair<std::string, const Dataset*>> datasets = {
      {"synthetic_coverage60_seed13", &synthetic->dataset},
      {"exam32_seed7", &exam->dataset}};
  std::string actual;
  for (const auto& [data_name, data] : datasets) {
    for (ClusteringBackend backend :
         {ClusteringBackend::kKMeans, ClusteringBackend::kAgglomerative}) {
      for (bool sparse : {false, true}) {
        TdacOptions opts;
        opts.base = &base;
        opts.backend = backend;
        opts.sparse_aware = sparse;
        auto report = Tdac(opts).DiscoverWithReport(*data);
        ASSERT_TRUE(report.ok()) << report.status();
        std::ostringstream out;
        out << "[" << data_name << " "
            << (backend == ClusteringBackend::kKMeans ? "kmeans"
                                                      : "agglomerative")
            << (sparse ? " sparse" : " dense") << "]\npartition "
            << report->partition.ToString() << "\nchosen_k "
            << report->chosen_k << " silhouette "
            << HexDouble(report->silhouette) << "\nsilhouette_by_k";
        for (const auto& [k, score] : report->silhouette_by_k) {
          out << ' ' << k << ':' << HexDouble(score);
        }
        const std::string result =
            SerializeTruthDiscoveryResult(report->result, *data);
        out << "\nresult " << result.size() << " bytes fnv1a64 "
            << testutil::Fnv1a64Hex(result) << '\n';
        actual += out.str();
      }
    }
  }
  testutil::ExpectMatchesGolden(
      std::string(TDAC_GOLDEN_DIR) + "/tdac_characterization.txt", actual);
}

TEST(TdacTest, MaxKLimitsSweep) {
  GeneratedData data = Correlated();
  MajorityVote base;
  TdacOptions opts;
  opts.base = &base;
  opts.max_k = 3;
  Tdac tdac(opts);
  auto report = tdac.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->silhouette_by_k.back().first, 3);
}

TEST(TdacTest, RefinementRoundsNeverHurtOnCorrelatedData) {
  GeneratedData data = Correlated(91);
  Accu base;
  TdacOptions single;
  single.base = &base;
  TdacOptions refined = single;
  refined.refinement_rounds = 2;
  auto one = Tdac(single).Discover(data.dataset);
  auto two = Tdac(refined).Discover(data.dataset);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  double acc_one =
      Evaluate(data.dataset, one->predicted, data.truth).accuracy;
  double acc_two =
      Evaluate(data.dataset, two->predicted, data.truth).accuracy;
  EXPECT_GE(acc_two + 0.02, acc_one);
  EXPECT_EQ(two->predicted.size(), data.dataset.DataItems().size());
}

TEST(TdacTest, RefinementStopsWhenPartitionStable) {
  // On clean data the partition stabilizes after one pass; the refined run
  // must return the same partition (and not loop forever).
  GeneratedData data = Correlated(92);
  Accu base;
  TdacOptions opts;
  opts.base = &base;
  opts.refinement_rounds = 5;
  Tdac tdac(opts);
  auto report = tdac.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->chosen_k, 2);
}

TEST(TdacTest, NameEncodesBase) {
  MajorityVote base;
  TdacOptions opts;
  opts.base = &base;
  EXPECT_EQ(Tdac(opts).name(), "TD-AC(F=MajorityVote)");
}

}  // namespace
}  // namespace tdac
