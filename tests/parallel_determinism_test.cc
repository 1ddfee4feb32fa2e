// Locks down the parallel execution layer's central promise: TD-AC,
// partition scoring and the base algorithms' own item blocks produce
// *bit-identical* output at every thread count.
// Every comparison below is exact (EXPECT_EQ on doubles, not NEAR) — the
// parallel paths seed per-task RNGs independently of scheduling and reduce
// in deterministic order, so nothing may drift.

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/thread_pool.h"
#include "gen/synthetic.h"
#include "partition/attribute_partition.h"
#include "partition/gen_partition.h"
#include "partition/greedy_partition.h"
#include "partition/group_runner.h"
#include "td/accu.h"
#include "td/majority_vote.h"
#include "td/registry.h"
#include "td/truth_discovery.h"
#include "tdac/tdac.h"

namespace tdac {
namespace {

// Thread counts exercised everywhere: serial, small, and the hardware
// width (forced to at least 4 so single-core CI still oversubscribes).
std::vector<int> ThreadCounts() {
  const int hw = static_cast<int>(
      std::max(4u, std::thread::hardware_concurrency()));
  return {1, 2, hw};
}

GeneratedData MakeData(double coverage = 1.0, uint64_t seed = 7) {
  SyntheticConfig config;
  config.num_objects = 60;
  config.num_sources = 8;
  config.planted_groups = {{0, 1, 2}, {3, 4}, {5, 6, 7}};
  config.reliability_levels = {1.0, 0.0, 0.8};
  config.level_weights = {0.25, 0.5, 0.25};
  config.stratified_levels = true;
  config.distractor_rate = 0.8;
  config.num_false_values = 10;
  config.coverage = coverage;
  config.seed = seed;
  auto data = GenerateSynthetic(config);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data.MoveValue();
}

void ExpectIdenticalResults(const TruthDiscoveryResult& base,
                            const TruthDiscoveryResult& other,
                            const std::string& label) {
  // Predictions: same items and value ids (one dataset, so one
  // dictionary), and exactly equal confidences.
  EXPECT_EQ(base.predicted.keys, other.predicted.keys) << label << ": items";
  EXPECT_EQ(base.predicted.value_ids, other.predicted.value_ids)
      << label << ": predictions";
  EXPECT_EQ(base.predicted.confidences, other.predicted.confidences)
      << label << ": confidences";
  // Trust vectors: exact double equality, source for source.
  ASSERT_EQ(base.source_trust.size(), other.source_trust.size()) << label;
  for (size_t s = 0; s < base.source_trust.size(); ++s) {
    EXPECT_EQ(base.source_trust[s], other.source_trust[s])
        << label << ": trust of source " << s;
  }
}

void ExpectTdacInvariant(TdacOptions options, const Dataset& data,
                         const std::string& label) {
  options.threads = 1;
  auto serial = Tdac(options).DiscoverWithReport(data);
  ASSERT_TRUE(serial.ok()) << label << ": " << serial.status().ToString();
  for (int threads : ThreadCounts()) {
    options.threads = threads;
    auto parallel = Tdac(options).DiscoverWithReport(data);
    ASSERT_TRUE(parallel.ok()) << label << ": " << parallel.status().ToString();
    const std::string at = label + " @threads=" + std::to_string(threads);
    EXPECT_EQ(serial->partition, parallel->partition) << at;
    EXPECT_EQ(serial->chosen_k, parallel->chosen_k) << at;
    EXPECT_EQ(serial->silhouette, parallel->silhouette) << at;
    EXPECT_EQ(serial->silhouette_by_k, parallel->silhouette_by_k) << at;
    ExpectIdenticalResults(serial->result, parallel->result, at);
  }
}

// DS2 at 2,000 objects: 120k claims, several kItemBlockClaims grains, so
// a base run at width > 1 cuts its store into item blocks and runs its
// phases over them. Every golden input is one block; this one is not.
const Dataset& AboveGrainData() {
  static const Dataset data = [] {
    auto config = PaperSyntheticConfig(2, 42);
    EXPECT_TRUE(config.ok());
    config->num_objects = 2000;
    auto generated = GenerateSynthetic(*config);
    EXPECT_TRUE(generated.ok());
    return std::move(generated->dataset);
  }();
  return data;
}

TEST(ParallelDeterminismTest, BaseRunsAboveTheGrainAreByteIdentical) {
  const Dataset& data = AboveGrainData();
  ASSERT_GE(data.num_claims(), 3 * td_internal::kItemBlockClaims);
  for (const std::string& name : RegisteredAlgorithms()) {
    auto algorithm = MakeAlgorithm(name);
    ASSERT_TRUE(algorithm.ok()) << name;
    std::string serial;
    for (int width : ThreadCounts()) {
      const RunWidthScope scope(width);
      auto result = (*algorithm)->Discover(data);
      ASSERT_TRUE(result.ok()) << name << ": " << result.status();
      const std::string bytes = SerializeTruthDiscoveryResult(*result, data);
      if (width == 1) {
        serial = bytes;
      } else {
        EXPECT_TRUE(bytes == serial)
            << name << " differs at width " << width;
      }
    }
  }
}

TEST(ParallelDeterminismTest, TdacAboveTheGrainIsByteIdentical) {
  const Dataset& data = AboveGrainData();
  Accu base;
  TdacOptions options;
  options.base = &base;
  std::string serial;
  AttributePartition serial_partition;
  for (int threads : ThreadCounts()) {
    options.threads = threads;
    auto report = Tdac(options).DiscoverWithReport(data);
    ASSERT_TRUE(report.ok()) << report.status();
    const std::string bytes =
        SerializeTruthDiscoveryResult(report->result, data);
    if (threads == 1) {
      serial = bytes;
      serial_partition = report->partition;
    } else {
      EXPECT_EQ(report->partition, serial_partition) << threads;
      EXPECT_TRUE(bytes == serial) << "TD-AC differs at threads=" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, TdacKMeansBackend) {
  GeneratedData data = MakeData();
  Accu base;
  TdacOptions options;
  options.base = &base;
  ExpectTdacInvariant(options, data.dataset, "kmeans");
}

TEST(ParallelDeterminismTest, TdacAgglomerativeBackend) {
  GeneratedData data = MakeData();
  Accu base;
  TdacOptions options;
  options.base = &base;
  options.backend = ClusteringBackend::kAgglomerative;
  ExpectTdacInvariant(options, data.dataset, "agglomerative");
}

TEST(ParallelDeterminismTest, TdacSparseAware) {
  GeneratedData data = MakeData(/*coverage=*/0.8);
  Accu base;
  TdacOptions options;
  options.base = &base;
  options.sparse_aware = true;
  ExpectTdacInvariant(options, data.dataset, "sparse_aware");
}

TEST(ParallelDeterminismTest, TdacSparseAwareAgglomerative) {
  GeneratedData data = MakeData(/*coverage=*/0.8);
  Accu base;
  TdacOptions options;
  options.base = &base;
  options.sparse_aware = true;
  options.backend = ClusteringBackend::kAgglomerative;
  ExpectTdacInvariant(options, data.dataset, "sparse_aware+agglomerative");
}

TEST(ParallelDeterminismTest, TdacWithRefinementRounds) {
  GeneratedData data = MakeData();
  Accu base;
  TdacOptions options;
  options.base = &base;
  options.refinement_rounds = 2;
  ExpectTdacInvariant(options, data.dataset, "refinement");
}

TEST(ParallelDeterminismTest, GroupRunnerScoreAndAggregate) {
  GeneratedData data = MakeData();
  Accu base;

  auto planted = AttributePartition::FromGroups(
      {{0, 1, 2}, {3, 4}, {5, 6, 7}});
  ASSERT_TRUE(planted.ok());
  auto coarse = AttributePartition::FromGroups({{0, 1, 2, 3, 4}, {5, 6, 7}});
  ASSERT_TRUE(coarse.ok());

  GroupRunner reference(&base, &data.dataset, /*threads=*/1);
  auto ref_avg =
      reference.Score(*planted, WeightingFunction::kAvg, nullptr);
  auto ref_max = reference.Score(*coarse, WeightingFunction::kMax, nullptr);
  auto ref_agg = reference.Aggregate(*planted);
  ASSERT_TRUE(ref_avg.ok());
  ASSERT_TRUE(ref_max.ok());
  ASSERT_TRUE(ref_agg.ok());

  for (int threads : ThreadCounts()) {
    GroupRunner runner(&base, &data.dataset, threads);
    auto avg = runner.Score(*planted, WeightingFunction::kAvg, nullptr);
    auto max = runner.Score(*coarse, WeightingFunction::kMax, nullptr);
    auto agg = runner.Aggregate(*planted);
    ASSERT_TRUE(avg.ok());
    ASSERT_TRUE(max.ok());
    ASSERT_TRUE(agg.ok());
    const std::string at = "threads=" + std::to_string(threads);
    EXPECT_EQ(ref_avg.value(), avg.value()) << at;
    EXPECT_EQ(ref_max.value(), max.value()) << at;
    ExpectIdenticalResults(ref_agg.value(), agg.value(), at);
    EXPECT_EQ(runner.groups_evaluated(), reference.groups_evaluated()) << at;
  }
}

TEST(ParallelDeterminismTest, GreedyPartitionSearch) {
  GeneratedData data = MakeData();
  MajorityVote base;  // cheap enough for a full greedy search in-test
  GenPartitionOptions options;
  options.base = &base;
  options.weighting = WeightingFunction::kAvg;

  options.threads = 1;
  auto serial = GreedyPartitionAlgorithm(options).DiscoverWithReport(
      data.dataset);
  ASSERT_TRUE(serial.ok());
  for (int threads : ThreadCounts()) {
    options.threads = threads;
    auto parallel = GreedyPartitionAlgorithm(options).DiscoverWithReport(
        data.dataset);
    ASSERT_TRUE(parallel.ok());
    const std::string at = "threads=" + std::to_string(threads);
    EXPECT_EQ(serial->best_partition, parallel->best_partition) << at;
    EXPECT_EQ(serial->best_score, parallel->best_score) << at;
    EXPECT_EQ(serial->partitions_explored, parallel->partitions_explored)
        << at;
    EXPECT_EQ(serial->groups_evaluated, parallel->groups_evaluated) << at;
    ExpectIdenticalResults(serial->result, parallel->result, at);
  }
}

TEST(ParallelDeterminismTest, ExhaustivePartitionSearch) {
  // 5 attributes -> Bell(5) = 52 partitions: small enough to enumerate.
  SyntheticConfig config;
  config.num_objects = 40;
  config.num_sources = 6;
  config.planted_groups = {{0, 1}, {2, 3, 4}};
  config.reliability_levels = {1.0, 0.0, 0.8};
  config.level_weights = {0.25, 0.5, 0.25};
  config.stratified_levels = true;
  config.distractor_rate = 0.8;
  config.num_false_values = 10;
  config.seed = 11;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());

  MajorityVote base;
  GenPartitionOptions options;
  options.base = &base;
  options.weighting = WeightingFunction::kAvg;

  options.threads = 1;
  auto serial =
      GenPartitionAlgorithm(options).DiscoverWithReport(data->dataset);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->partitions_explored, 52u);
  for (int threads : ThreadCounts()) {
    options.threads = threads;
    auto parallel =
        GenPartitionAlgorithm(options).DiscoverWithReport(data->dataset);
    ASSERT_TRUE(parallel.ok());
    const std::string at = "threads=" + std::to_string(threads);
    EXPECT_EQ(serial->best_partition, parallel->best_partition) << at;
    EXPECT_EQ(serial->best_score, parallel->best_score) << at;
    EXPECT_EQ(serial->partitions_explored, parallel->partitions_explored)
        << at;
    ExpectIdenticalResults(serial->result, parallel->result, at);
  }
}

}  // namespace
}  // namespace tdac
