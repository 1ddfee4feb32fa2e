#include "gen/scenario.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/soa_mode.h"
#include "eval/metrics.h"
#include "gen/flights.h"
#include "td/majority_vote.h"
#include "td/registry.h"
#include "td/truth_discovery.h"
#include "test_util.h"

namespace tdac {
namespace {

// The spec -> report round-trip contract: everything the report claims
// about a generated scenario must be measurable from the dataset, and
// everything the spec promises (skew shape, coverage, adversarial
// structure, planted truth) must show up in the report. These run under
// serial and TDAC_THREADS=8 registrations (tests/CMakeLists).

ScenarioSpec SmallSpec() {
  ScenarioSpec spec;
  spec.num_objects = 40;
  spec.num_attributes = 4;
  spec.num_sources = 12;
  spec.seed = 20260808;
  return spec;
}

// A cell where every source is perfectly reliable.
ScenarioSpec OracleSpec(AdversaryMode adversary) {
  ScenarioSpec spec = SmallSpec();
  spec.name = "oracle";
  spec.adversary = adversary;
  spec.reliable_accuracy = 1.0;
  spec.unreliable_accuracy = 1.0;
  return spec;
}

constexpr AdversaryMode kOracleAdversaries[] = {
    AdversaryMode::kNone, AdversaryMode::kCopyRing,
    AdversaryMode::kNearDuplicate};

// A small copy-ring cell the whole registry runs on.
ScenarioSpec RegistrySmokeSpec() {
  ScenarioSpec spec = SmallSpec();
  spec.name = "registry-smoke";
  spec.num_objects = 12;
  spec.adversary = AdversaryMode::kCopyRing;
  return spec;
}

int HammingDistance(const std::string& a, const std::string& b) {
  EXPECT_EQ(a.size(), b.size());
  int d = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) d += a[i] != b[i];
  return d;
}

TEST(ScenarioMatrixTest, DefaultMatrixShape) {
  const auto matrix = DefaultScenarioMatrix(30, 7);
  EXPECT_GE(matrix.size(), 12u);  // the acceptance floor
  EXPECT_EQ(matrix.size(), 16u);
  std::vector<std::string> names;
  int skews = 0, sparsities = 0, adversaries = 0;
  std::vector<std::string> seen_skew, seen_dcr, seen_adv;
  for (const auto& spec : matrix) {
    names.push_back(spec.name);
    EXPECT_EQ(spec.num_objects, 30);
    auto count = [](std::vector<std::string>* seen, const std::string& v) {
      if (std::find(seen->begin(), seen->end(), v) == seen->end()) {
        seen->push_back(v);
      }
    };
    count(&seen_skew, ToString(spec.skew));
    count(&seen_dcr, std::to_string(spec.dcr));
    count(&seen_adv, ToString(spec.adversary));
  }
  skews = static_cast<int>(seen_skew.size());
  sparsities = static_cast<int>(seen_dcr.size());
  adversaries = static_cast<int>(seen_adv.size());
  EXPECT_EQ(skews, 3);
  EXPECT_GE(sparsities, 2);
  EXPECT_EQ(adversaries, 4);  // none, ring, majwrong, neardup all present
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end())
      << "cell names must be unique (they become checkpoint slots)";
}

TEST(ScenarioMatrixTest, FullMatrixShape) {
  const auto matrix = FullScenarioMatrix(0, 7);
  EXPECT_EQ(matrix.size(), 36u);  // 3 skew x 3 dcr x 4 adversaries
  std::vector<std::string> names;
  for (const auto& spec : matrix) names.push_back(spec.name);
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end());
}

TEST(ScenarioGenerateTest, DeterministicInSeedAndSensitiveToIt) {
  ScenarioSpec spec = SmallSpec();
  spec.adversary = AdversaryMode::kCopyRing;
  auto a = GenerateScenario(spec);
  auto b = GenerateScenario(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->dataset.num_claims(), b->dataset.num_claims());
  for (size_t i = 0; i < a->dataset.num_claims(); ++i) {
    EXPECT_EQ(a->dataset.claim(i), b->dataset.claim(i));
  }
  EXPECT_EQ(a->truth, b->truth);
  EXPECT_EQ(a->report.ToJson(), b->report.ToJson());

  spec.seed ^= 0x1234;
  auto c = GenerateScenario(spec);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->report.ToJson(), c->report.ToJson());
}

// Every default-matrix cell round-trips: the report's realized statistics
// match what its spec planted, and the planted truth covers every item.
TEST(ScenarioRoundTripTest, ReportMatchesSpecAcrossTheMatrix) {
  for (const ScenarioSpec& spec : DefaultScenarioMatrix(40, 99)) {
    SCOPED_TRACE(spec.name);
    auto generated = GenerateScenario(spec);
    ASSERT_TRUE(generated.ok()) << generated.status();
    const ScenarioReport& report = generated->report;
    const Dataset& data = generated->dataset;

    // Dimensions and identity echo the spec; claims are recounted from the
    // built dataset.
    EXPECT_EQ(report.name, spec.name);
    EXPECT_EQ(report.skew, std::string(ToString(spec.skew)));
    EXPECT_EQ(report.adversary, std::string(ToString(spec.adversary)));
    EXPECT_EQ(report.num_objects, spec.num_objects);
    EXPECT_EQ(report.num_attributes, spec.num_attributes);
    EXPECT_EQ(report.num_sources, spec.num_sources);
    EXPECT_EQ(report.num_claims, data.num_claims());
    EXPECT_DOUBLE_EQ(report.target_dcr, spec.dcr);

    // Coverage: realized DCR within tolerance of the target (Bernoulli
    // noise + the >=1-claim-per-item floor), and the histogram sums to the
    // claim count with every source represented.
    EXPECT_NEAR(report.realized_dcr, spec.dcr, 0.1);
    int64_t histogram_sum = 0;
    ASSERT_EQ(report.claims_per_source.size(),
              static_cast<size_t>(spec.num_sources));
    for (int64_t c : report.claims_per_source) {
      EXPECT_GE(c, 1);
      histogram_sum += c;
    }
    EXPECT_EQ(static_cast<size_t>(histogram_sum), report.num_claims);

    // Skew shape.
    const auto [min_it, max_it] = std::minmax_element(
        report.claims_per_source.begin(), report.claims_per_source.end());
    if (spec.skew == SkewProfile::kEven) {
      // Round-robin rotation: per-source counts within one rotation of
      // each other (exactly equal when items divide the source count).
      const int k = std::clamp(
          static_cast<int>(std::llround(spec.dcr * spec.num_sources)), 1,
          spec.num_sources);
      EXPECT_LE(*max_it - *min_it, k);
    } else if (spec.skew == SkewProfile::kStacked && spec.dcr < 1.0) {
      // Heavy head: source 0 carries far more than the tail source.
      EXPECT_GT(report.claims_per_source.front(),
                2 * report.claims_per_source.back());
    }

    // Planted truth: exactly one truth per item, and every claim's item
    // has one.
    EXPECT_EQ(generated->truth.size(),
              static_cast<size_t>(spec.num_objects) *
                  static_cast<size_t>(spec.num_attributes));
    for (int32_t id : data.claim_ids()) {
      const Claim claim = data.claim(static_cast<size_t>(id));
      ASSERT_NE(generated->truth.Get(claim.object, claim.attribute), nullptr);
    }

    // Per-source accuracy is a rate.
    ASSERT_EQ(report.source_accuracy.size(),
              static_cast<size_t>(spec.num_sources));
    for (double acc : report.source_accuracy) {
      EXPECT_GE(acc, 0.0);
      EXPECT_LE(acc, 1.0);
    }

    // Adversarial structure shows up where (and only where) planted.
    if (spec.adversary == AdversaryMode::kCopyRing) {
      ASSERT_EQ(report.ring_members.size(),
                static_cast<size_t>(spec.ring_size));
      std::vector<int32_t> sorted = report.ring_members;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end());
      EXPECT_GE(sorted.front(), 0);
      EXPECT_LT(sorted.back(), spec.num_sources);
      // Members copy with rate 0.95; independent coincidences only raise
      // the realized agreement.
      EXPECT_GE(report.ring_agreement, 0.8);
    } else {
      EXPECT_TRUE(report.ring_members.empty());
      EXPECT_DOUBLE_EQ(report.ring_agreement, 0.0);
    }
    if (spec.adversary == AdversaryMode::kMajorityWrong) {
      const int expected_attrs = static_cast<int>(
          std::llround(spec.majority_wrong_share * spec.num_attributes));
      EXPECT_EQ(report.majority_wrong_attributes.size(),
                static_cast<size_t>(expected_attrs));
      // The flip + forced distractor really manufactures lying majorities.
      const int64_t wrong_items =
          static_cast<int64_t>(expected_attrs) * spec.num_objects;
      EXPECT_GT(report.majority_wrong_items, wrong_items / 3);
    } else {
      EXPECT_TRUE(report.majority_wrong_attributes.empty());
      EXPECT_EQ(report.majority_wrong_items, 0);
    }
    if (spec.adversary == AdversaryMode::kNearDuplicate) {
      EXPECT_GT(report.near_duplicate_items, 0);
      // Every claim is a string within `near_duplicate_edits` substitutions
      // of its item's planted truth.
      for (int32_t id : data.claim_ids()) {
        const Claim claim = data.claim(static_cast<size_t>(id));
        ASSERT_TRUE(claim.value.is_string());
        const Value* item_truth =
            generated->truth.Get(claim.object, claim.attribute);
        ASSERT_NE(item_truth, nullptr);
        const int d =
            HammingDistance(claim.value.AsString(), item_truth->AsString());
        EXPECT_TRUE(d == 0 || d == spec.near_duplicate_edits) << d;
      }
    } else {
      EXPECT_EQ(report.near_duplicate_items, 0);
    }

    // The JSON rendering carries the contract's key fields.
    const std::string json = report.ToJson();
    EXPECT_NE(json.find("\"name\": \"" + spec.name + "\""), std::string::npos);
    EXPECT_NE(json.find("\"realized_dcr\""), std::string::npos);
    EXPECT_NE(json.find("\"claims_per_source\""), std::string::npos);
    EXPECT_NE(json.find("\"ring_agreement\""), std::string::npos);
  }
}

// Ultra-sparse regime: the per-item and per-source floors hold, so every
// registered algorithm still sees a well-formed dataset.
TEST(ScenarioRoundTripTest, UltraSparseKeepsFloors) {
  ScenarioSpec spec = SmallSpec();
  spec.name = "sparse-floor";
  spec.dcr = 0.05;
  auto generated = GenerateScenario(spec);
  ASSERT_TRUE(generated.ok());
  for (int64_t c : generated->report.claims_per_source) EXPECT_GE(c, 1);
  std::map<uint64_t, int> per_item;
  for (int32_t id : generated->dataset.claim_ids()) {
    const Claim claim = generated->dataset.claim(static_cast<size_t>(id));
    ++per_item[ObjectAttrKey(claim.object, claim.attribute)];
  }
  EXPECT_EQ(per_item.size(), static_cast<size_t>(spec.num_objects) *
                                 static_cast<size_t>(spec.num_attributes));
  // The floors only ever add claims, so realized coverage sits at or above
  // the target.
  EXPECT_GE(generated->report.realized_dcr, spec.dcr - 0.02);
}

// With every source perfectly reliable the planted truth is recoverable by
// the simplest oracle there is: unanimous majority vote.
TEST(ScenarioRoundTripTest, OracleRecoversPlantedTruth) {
  for (AdversaryMode adversary : kOracleAdversaries) {
    SCOPED_TRACE(ToString(adversary));
    auto generated = GenerateScenario(OracleSpec(adversary));
    ASSERT_TRUE(generated.ok());
    for (int32_t id : generated->dataset.claim_ids()) {
      const Claim claim = generated->dataset.claim(static_cast<size_t>(id));
      EXPECT_EQ(claim.value,
                *generated->truth.Get(claim.object, claim.attribute));
    }
    MajorityVote mv;
    auto discovered = mv.Discover(generated->dataset);
    ASSERT_TRUE(discovered.ok());
    const PerformanceMetrics metrics = Evaluate(
        generated->dataset, discovered->predicted, generated->truth);
    EXPECT_DOUBLE_EQ(metrics.item_accuracy, 1.0);
    EXPECT_EQ(metrics.items_evaluated, generated->truth.size());
  }
}

// Every registered algorithm runs bit-identically down the SoA and legacy
// kernel paths on each cell the oracle and registry tests run kernels on,
// plus a noisy near-duplicate cell (the contract the differential suite
// pins for the synthetic generators).
TEST(ScenarioGenerateTest, SoaAndLegacyKernelPathsAgree) {
  std::vector<ScenarioSpec> cells;
  for (AdversaryMode adversary : kOracleAdversaries) {
    cells.push_back(OracleSpec(adversary));
  }
  cells.push_back(RegistrySmokeSpec());
  ScenarioSpec noisy = SmallSpec();
  noisy.name = "soa-vs-legacy";
  noisy.adversary = AdversaryMode::kNearDuplicate;
  cells.push_back(noisy);
  for (const ScenarioSpec& spec : cells) {
    auto generated = GenerateScenario(spec);
    ASSERT_TRUE(generated.ok()) << generated.status();
    for (const std::string& name : RegisteredAlgorithms()) {
      SCOPED_TRACE(spec.name + "/" + ToString(spec.adversary) + " " + name);
      auto algorithm = MakeAlgorithm(name);
      ASSERT_TRUE(algorithm.ok());
      SetSoaKernelsEnabled(false);
      auto legacy = (*algorithm)->Discover(generated->dataset);
      SetSoaKernelsEnabled(true);
      auto soa = (*algorithm)->Discover(generated->dataset);
      ASSERT_TRUE(legacy.ok()) << legacy.status();
      ASSERT_TRUE(soa.ok()) << soa.status();
      EXPECT_EQ(SerializeTruthDiscoveryResult(*legacy),
                SerializeTruthDiscoveryResult(*soa));
    }
  }
}

// Every registered algorithm completes on a scenario dataset (smoke-level:
// one adversarial cell, small scale).
TEST(ScenarioGenerateTest, FullRegistryRunsOnAdversarialCell) {
  auto generated = GenerateScenario(RegistrySmokeSpec());
  ASSERT_TRUE(generated.ok());
  for (const std::string& name : RegisteredAlgorithms()) {
    SCOPED_TRACE(name);
    auto algorithm = MakeAlgorithm(name);
    ASSERT_TRUE(algorithm.ok());
    auto discovered = (*algorithm)->Discover(generated->dataset);
    ASSERT_TRUE(discovered.ok()) << discovered.status();
    EXPECT_FALSE(discovered->predicted.empty());
  }
}

// Characterization golden: every registered algorithm's iteration count,
// stop reason and a digest of its serialized result on each default-matrix
// cell and on the flights simulator, so a kernel rewrite that moves any
// output bit fails here.
TEST(ScenarioGenerateTest, RegistryResultsMatchGolden) {
  std::vector<std::pair<std::string, Dataset>> inputs;
  for (const ScenarioSpec& spec : DefaultScenarioMatrix(40, 99)) {
    auto generated = GenerateScenario(spec);
    ASSERT_TRUE(generated.ok()) << generated.status();
    inputs.emplace_back(spec.name, std::move(generated->dataset));
  }
  auto flights = GenerateFlights(7);
  ASSERT_TRUE(flights.ok()) << flights.status();
  inputs.emplace_back("flights_seed7", std::move(flights->dataset));

  std::string actual;
  for (const auto& [input_name, dataset] : inputs) {
    for (const std::string& name : RegisteredAlgorithms()) {
      auto algorithm = MakeAlgorithm(name);
      ASSERT_TRUE(algorithm.ok());
      auto result = (*algorithm)->Discover(dataset);
      ASSERT_TRUE(result.ok()) << input_name << " " << name << ": "
                               << result.status();
      actual += input_name + " " + name + " iterations " +
                std::to_string(result->iterations) + " stop " +
                std::string(StopReasonToString(result->stop_reason)) +
                " fnv1a64 " +
                testutil::Fnv1a64Hex(SerializeTruthDiscoveryResult(*result)) +
                "\n";
    }
  }
  testutil::ExpectMatchesGolden(
      std::string(TDAC_GOLDEN_DIR) + "/registry_results.txt", actual);
}

TEST(ScenarioGenerateTest, InvalidSpecsAreRefused) {
  const auto expect_invalid = [](ScenarioSpec spec, const char* label) {
    auto r = GenerateScenario(spec);
    ASSERT_FALSE(r.ok()) << label;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << label;
  };
  ScenarioSpec base = SmallSpec();
  {
    ScenarioSpec s = base;
    s.name = "";
    expect_invalid(s, "empty name");
  }
  {
    ScenarioSpec s = base;
    s.name = "not a safe name!";
    expect_invalid(s, "unsafe name");
  }
  {
    ScenarioSpec s = base;
    s.num_objects = 0;
    expect_invalid(s, "no objects");
  }
  {
    ScenarioSpec s = base;
    s.dcr = 0.0;
    expect_invalid(s, "zero dcr");
  }
  {
    ScenarioSpec s = base;
    s.dcr = 1.5;
    expect_invalid(s, "dcr > 1");
  }
  {
    ScenarioSpec s = base;
    s.reliable_accuracy = 1.2;
    expect_invalid(s, "accuracy > 1");
  }
  {
    ScenarioSpec s = base;
    s.num_false_values = 0;
    expect_invalid(s, "no false values");
  }
  {
    ScenarioSpec s = base;
    s.adversary = AdversaryMode::kNearDuplicate;
    s.num_false_values = 5000;
    expect_invalid(s, "near-dup pool too large");
  }
  {
    ScenarioSpec s = base;
    s.adversary = AdversaryMode::kCopyRing;
    s.ring_size = 1;
    expect_invalid(s, "ring of one");
  }
  {
    ScenarioSpec s = base;
    s.adversary = AdversaryMode::kCopyRing;
    s.ring_size = s.num_sources + 1;
    expect_invalid(s, "ring larger than source set");
  }
  {
    ScenarioSpec s = base;
    s.near_duplicate_edits = 0;
    expect_invalid(s, "zero edits");
  }
  {
    ScenarioSpec s = base;
    s.near_duplicate_edits = 9;
    expect_invalid(s, "too many edits");
  }
}

}  // namespace
}  // namespace tdac
