// Registry-driven degenerate-input suite: structurally legal datasets at
// the edges of the claim model (single source, single attribute, no
// conflicts, one claim per object). Every algorithm must finish cleanly —
// a finite, non-degraded result covering every data item — and the empty
// dataset must be refused with InvalidArgument, not crash.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_guard.h"
#include "td/registry.h"
#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

void ExpectCleanFiniteRun(const TruthDiscovery& algorithm, const Dataset& data,
                          const std::string& context) {
  auto run = algorithm.Discover(data);
  ASSERT_TRUE(run.ok()) << context << ": " << run.status().ToString();
  EXPECT_FALSE(run->degraded())
      << context << ": " << StopReasonToString(run->stop_reason);
  EXPECT_EQ(run->predicted.size(), data.DataItems().size()) << context;
  for (size_t s = 0; s < run->source_trust.size(); ++s) {
    EXPECT_TRUE(std::isfinite(run->source_trust[s]))
        << context << ": source_trust[" << s << "]";
  }
  for (double conf : run->predicted.confidences) {
    EXPECT_TRUE(std::isfinite(conf)) << context << ": confidence";
  }
}

void ForEachAlgorithm(const Dataset& data, const std::string& scenario) {
  for (const std::string& name : RegisteredAlgorithms()) {
    auto algorithm = MakeAlgorithm(name);
    ASSERT_TRUE(algorithm.ok()) << name;
    ExpectCleanFiniteRun(**algorithm, data, scenario + " / " + name);
  }
}

TEST(EdgeCasesTest, EmptyDatasetIsRefusedNotCrashed) {
  Dataset empty;
  for (const std::string& name : RegisteredAlgorithms()) {
    auto algorithm = MakeAlgorithm(name);
    ASSERT_TRUE(algorithm.ok()) << name;
    auto run = (*algorithm)->Discover(empty);
    ASSERT_FALSE(run.ok()) << name;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(EdgeCasesTest, SingleSourceDataset) {
  // One source claiming everything: no corroboration and no disagreement.
  std::vector<ClaimSpec> specs;
  for (int o = 0; o < 4; ++o) {
    for (int a = 0; a < 3; ++a) {
      specs.push_back({"solo", "o" + std::to_string(o),
                       "a" + std::to_string(a), 100 + o * 10 + a});
    }
  }
  ForEachAlgorithm(BuildDataset(specs), "single-source");
}

TEST(EdgeCasesTest, SingleAttributeDataset) {
  std::vector<ClaimSpec> specs;
  for (int o = 0; o < 5; ++o) {
    specs.push_back({"s1", "o" + std::to_string(o), "attr", 100 + o});
    specs.push_back({"s2", "o" + std::to_string(o), "attr", 100 + o});
    specs.push_back({"s3", "o" + std::to_string(o), "attr", 200 + o});
  }
  ForEachAlgorithm(BuildDataset(specs), "single-attribute");
}

TEST(EdgeCasesTest, OneClaimPerObject) {
  // Every object is claimed exactly once, each by a different source:
  // every conflict set is a singleton.
  std::vector<ClaimSpec> specs;
  for (int o = 0; o < 6; ++o) {
    specs.push_back({"s" + std::to_string(o), "o" + std::to_string(o), "a",
                     1000 + o});
  }
  ForEachAlgorithm(BuildDataset(specs), "one-claim-per-object");
}

TEST(EdgeCasesTest, AllSourcesAgreeEverywhere) {
  // Zero-conflict data: every loss/disagreement signal is exactly zero,
  // which historically broke CRH's log-weight step (divide-by-zero-style
  // fallback); now a uniform-weight fallback must keep the run clean.
  std::vector<ClaimSpec> specs;
  for (int o = 0; o < 3; ++o) {
    for (int a = 0; a < 3; ++a) {
      for (int s = 0; s < 3; ++s) {
        specs.push_back({"s" + std::to_string(s), "o" + std::to_string(o),
                         "a" + std::to_string(a), 7});
      }
    }
  }
  Dataset data = BuildDataset(specs);
  ForEachAlgorithm(data, "all-agree");
  // And the elected truths are the unanimous value.
  for (const std::string& name : RegisteredAlgorithms()) {
    auto algorithm = MakeAlgorithm(name);
    ASSERT_TRUE(algorithm.ok());
    auto run = (*algorithm)->Discover(data);
    ASSERT_TRUE(run.ok()) << name;
    for (size_t i = 0; i < run->predicted.size(); ++i) {
      EXPECT_EQ(run->predicted.ValueAt(i, data), Value(int64_t{7})) << name;
    }
  }
}

}  // namespace
}  // namespace tdac
