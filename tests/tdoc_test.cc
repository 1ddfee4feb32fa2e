#include "tdac/tdoc.h"

#include <algorithm>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/checkpoint.h"
#include "eval/metrics.h"
#include "gen/synthetic.h"
#include "td/accu.h"
#include "td/majority_vote.h"
#include "tdac/tdac.h"
#include "test_util.h"

namespace tdac {
namespace {

ObjectCorrelatedData ObjectCorrelated(uint64_t seed = 3, int per_group = 30) {
  ObjectCorrelatedConfig config;
  config.num_attributes = 5;
  config.num_sources = 10;
  config.planted_groups.clear();
  std::vector<ObjectId> g1;
  std::vector<ObjectId> g2;
  for (int o = 0; o < per_group; ++o) g1.push_back(o);
  for (int o = per_group; o < 2 * per_group; ++o) g2.push_back(o);
  config.planted_groups = {g1, g2};
  config.seed = seed;
  auto data = GenerateObjectCorrelated(config);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data.MoveValue();
}

TEST(ObjectCorrelatedGenTest, ShapeAndDeterminism) {
  ObjectCorrelatedData a = ObjectCorrelated(9);
  ObjectCorrelatedData b = ObjectCorrelated(9);
  EXPECT_EQ(a.dataset.num_objects(), 60);
  EXPECT_EQ(a.dataset.num_attributes(), 5);
  EXPECT_EQ(a.dataset.num_sources(), 10);
  EXPECT_EQ(a.dataset.num_claims(), b.dataset.num_claims());
  EXPECT_EQ(a.reliability, b.reliability);
}

TEST(ObjectCorrelatedGenTest, RejectsNonPartition) {
  ObjectCorrelatedConfig config;
  config.planted_groups = {{0, 1}, {1, 2}};  // overlap
  EXPECT_FALSE(GenerateObjectCorrelated(config).ok());
  config.planted_groups = {{0, 2}};  // gap
  EXPECT_FALSE(GenerateObjectCorrelated(config).ok());
}

TEST(TdocTest, GroupsPartitionActiveObjects) {
  ObjectCorrelatedData data = ObjectCorrelated();
  Accu base;
  TdocOptions opts;
  opts.base = &base;
  Tdoc tdoc(opts);
  auto report = tdoc.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(report.ok());
  std::set<ObjectId> covered;
  for (const auto& group : report->groups) {
    for (ObjectId o : group) {
      EXPECT_TRUE(covered.insert(o).second) << "object in two groups";
    }
  }
  std::vector<ObjectId> active = data.dataset.ActiveObjects();
  EXPECT_EQ(covered.size(), active.size());
  EXPECT_EQ(report->result.predicted.size(),
            data.dataset.DataItems().size());
}

TEST(TdocTest, HelpsOnAverageOnObjectCorrelatedData) {
  // Object clustering is noisier than attribute clustering (object truth
  // vectors are short, and a mis-clustered group can lock in a distractor
  // coalition), so single seeds swing both ways; on average over seeds
  // TD-OC must at least hold its own on object-correlated data.
  Accu base;
  TdocOptions opts;
  opts.base = &base;
  Tdoc tdoc(opts);
  double base_mean = 0.0;
  double tdoc_mean = 0.0;
  const std::vector<uint64_t> seeds{21, 33, 50};
  for (uint64_t seed : seeds) {
    ObjectCorrelatedConfig config;
    config.num_attributes = 6;
    config.num_sources = 10;
    std::vector<ObjectId> g1;
    std::vector<ObjectId> g2;
    std::vector<ObjectId> g3;
    for (int o = 0; o < 240; ++o) {
      (o % 3 == 0 ? g1 : (o % 3 == 1 ? g2 : g3)).push_back(o);
    }
    config.planted_groups = {g1, g2, g3};
    config.seed = seed;
    auto data = GenerateObjectCorrelated(config).MoveValue();
    base_mean += Evaluate(data.dataset,
                          base.Discover(data.dataset).MoveValue().predicted,
                          data.truth)
                     .accuracy;
    tdoc_mean += Evaluate(data.dataset,
                          tdoc.Discover(data.dataset).MoveValue().predicted,
                          data.truth)
                     .accuracy;
  }
  base_mean /= static_cast<double>(seeds.size());
  tdoc_mean /= static_cast<double>(seeds.size());
  EXPECT_GE(tdoc_mean + 0.05, base_mean);
  EXPECT_GT(tdoc_mean, 0.8);
}

TEST(TdocTest, AxesMatter) {
  // On object-correlated data TD-OC should beat TD-AC; the attribute axis
  // carries no structure there.
  ObjectCorrelatedData data = ObjectCorrelated(33, 40);
  Accu base;
  TdocOptions oopts;
  oopts.base = &base;
  Tdoc tdoc(oopts);
  TdacOptions aopts;
  aopts.base = &base;
  Tdac tdac(aopts);
  double tdoc_acc = Evaluate(data.dataset,
                             tdoc.Discover(data.dataset).MoveValue().predicted,
                             data.truth)
                        .accuracy;
  double tdac_acc = Evaluate(data.dataset,
                             tdac.Discover(data.dataset).MoveValue().predicted,
                             data.truth)
                        .accuracy;
  EXPECT_GE(tdoc_acc + 0.05, tdac_acc);
}

TEST(TdocTest, FallsBackWithFewObjects) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(4, &truth);  // a single object
  MajorityVote base;
  TdocOptions opts;
  opts.base = &base;
  Tdoc tdoc(opts);
  auto report = tdoc.DiscoverWithReport(d);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->fell_back_to_base);
  EXPECT_EQ(report->chosen_k, 1);
  EXPECT_EQ(report->result.predicted.size(), d.DataItems().size());
}

TEST(TdocTest, NameEncodesBase) {
  MajorityVote base;
  TdocOptions opts;
  opts.base = &base;
  EXPECT_EQ(Tdoc(opts).name(), "TD-OC(F=MajorityVote)");
}

/// Everything a clean TD-OC run decides, bit for bit: the chosen k and
/// groups, every silhouette, and a digest of the serialized result.
std::string Characterize(const TdocReport& report, const Dataset& data) {
  std::ostringstream out;
  out << "chosen_k " << report.chosen_k << " fell_back "
      << report.fell_back_to_base << "\nsilhouette "
      << HexDouble(report.silhouette) << "\nsilhouette_by_k";
  for (const auto& [k, score] : report.silhouette_by_k) {
    out << ' ' << k << ':' << HexDouble(score);
  }
  out << "\ngroups";
  for (const auto& group : report.groups) {
    out << " (";
    for (size_t i = 0; i < group.size(); ++i) {
      out << (i > 0 ? "," : "") << group[i];
    }
    out << ')';
  }
  const std::string result =
      SerializeTruthDiscoveryResult(report.result, data);
  out << "\nresult " << result.size() << " bytes fnv1a64 "
      << testutil::Fnv1a64Hex(result) << '\n';
  return out.str();
}

// Characterization golden: TD-OC's clean output on object-correlated data
// and on ds2 at 600 objects, for Accu and MajorityVote. Byte-identical at
// any TDAC_THREADS (the test is registered serial and at 8 threads).
TEST(TdocTest, CharacterizationGolden) {
  ObjectCorrelatedData correlated = ObjectCorrelated();
  auto ds2_config = PaperSyntheticConfig(2, /*seed=*/42);
  ASSERT_TRUE(ds2_config.ok()) << ds2_config.status();
  ds2_config->num_objects = 600;
  auto ds2 = GenerateSynthetic(*ds2_config);
  ASSERT_TRUE(ds2.ok()) << ds2.status();

  Accu accu;
  MajorityVote majority;
  const std::vector<std::pair<std::string, const Dataset*>> datasets = {
      {"object_correlated_seed3", &correlated.dataset},
      {"ds2_600_seed42", &ds2->dataset}};
  std::string actual;
  for (const auto& [data_name, data] : datasets) {
    for (const TruthDiscovery* base :
         std::vector<const TruthDiscovery*>{&accu, &majority}) {
      TdocOptions opts;
      opts.base = base;
      auto report = Tdoc(opts).DiscoverWithReport(*data);
      ASSERT_TRUE(report.ok()) << report.status();
      actual += "[" + data_name + " " + std::string(base->name()) + "]\n" +
                Characterize(*report, *data);
    }
  }
  testutil::ExpectMatchesGolden(
      std::string(TDAC_GOLDEN_DIR) + "/tdoc_characterization.txt", actual);
}

TEST(TdocTest, MaxKCapsTheSweep) {
  ObjectCorrelatedData data = ObjectCorrelated(5);
  Accu base;
  TdocOptions opts;
  opts.base = &base;
  opts.max_k = 3;
  Tdoc tdoc(opts);
  auto report = tdoc.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(report.ok());
  for (const auto& [k, sil] : report->silhouette_by_k) {
    EXPECT_LE(k, 3);
  }
}

}  // namespace
}  // namespace tdac
