#include "gen/scenario.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/dataset_builder.h"
#include "data/dataset_io.h"
#include "data/dataset_view.h"
#include "eval/metrics.h"
#include "gen/corrupt.h"
#include "gen/flights.h"
#include "gen/synthetic.h"
#include "td/majority_vote.h"
#include "td/registry.h"
#include "td/truth_discovery.h"
#include "tdac/tdac.h"
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

// Hand-built shapes the scenario generator does not produce, for the
// registry golden: each stresses a different part of the grouping sort and
// the value dictionary.

/// Skewed coverage: source 0 claims every item, the tail of sources gets
/// exponentially sparser, values are small ints (heavy vote collisions).
Dataset SkewedDataset(uint64_t seed) {
  Rng rng(seed);
  DatasetBuilder b;
  const int sources = 8;
  const int objects = 12;
  const int attrs = 3;
  for (int s = 0; s < sources; ++s) b.AddSource("s" + std::to_string(s));
  for (int o = 0; o < objects; ++o) b.AddObject("o" + std::to_string(o));
  for (int a = 0; a < attrs; ++a) b.AddAttribute("a" + std::to_string(a));
  for (int s = 0; s < sources; ++s) {
    const double keep = s == 0 ? 1.0 : 1.0 / static_cast<double>(1 << s);
    for (int o = 0; o < objects; ++o) {
      for (int a = 0; a < attrs; ++a) {
        if (s == 0 || rng.NextBernoulli(keep)) {
          EXPECT_TRUE(b.AddClaim(s, o, a, Value(rng.NextInt(0, 3))).ok());
        }
      }
    }
  }
  return b.Build().MoveValue();
}

/// Sparse coverage (~15%) over a wide item grid, double values drawn from
/// a tiny set so items still conflict.
Dataset SparseDataset(uint64_t seed) {
  Rng rng(seed);
  DatasetBuilder b;
  const int sources = 6;
  const int objects = 20;
  const int attrs = 5;
  for (int s = 0; s < sources; ++s) b.AddSource("s" + std::to_string(s));
  for (int o = 0; o < objects; ++o) b.AddObject("o" + std::to_string(o));
  for (int a = 0; a < attrs; ++a) b.AddAttribute("a" + std::to_string(a));
  size_t added = 0;
  for (int s = 0; s < sources; ++s) {
    for (int o = 0; o < objects; ++o) {
      for (int a = 0; a < attrs; ++a) {
        if (rng.NextBernoulli(0.15)) {
          EXPECT_TRUE(
              b.AddClaim(s, o, a,
                         Value(0.5 * static_cast<double>(rng.NextInt(0, 4))))
                  .ok());
          ++added;
        }
      }
    }
  }
  if (added == 0) {
    EXPECT_TRUE(b.AddClaim(0, 0, 0, Value(1.5)).ok());
  }
  return b.Build().MoveValue();
}

/// Degenerate corroboration: a single source claims everything (every
/// conflict set is a singleton; trust loops see one voter).
Dataset SingleSourceDataset(uint64_t seed) {
  Rng rng(seed);
  DatasetBuilder b;
  b.AddSource("lonely");
  for (int o = 0; o < 10; ++o) b.AddObject("o" + std::to_string(o));
  for (int a = 0; a < 4; ++a) b.AddAttribute("a" + std::to_string(a));
  for (int o = 0; o < 10; ++o) {
    for (int a = 0; a < 4; ++a) {
      EXPECT_TRUE(b.AddClaim(0, o, a, Value(rng.NextInt(0, 9))).ok());
    }
  }
  return b.Build().MoveValue();
}

/// String values exercising the dictionary arena: multi-byte UTF-8,
/// empty strings, heavy duplication, and strings sharing long prefixes.
Dataset UnicodeStringsDataset(uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> pool = {
      "",          "π≈3.14159",  "Zürich",       "Zürich ",
      "ναί",       "مرحبا",      "🙂🙃",          "prefix-prefix-a",
      "prefix-prefix-b", "\t tab", "München", "naïve"};
  DatasetBuilder b;
  const int sources = 7;
  const int objects = 9;
  const int attrs = 3;
  for (int s = 0; s < sources; ++s) b.AddSource("s" + std::to_string(s));
  for (int o = 0; o < objects; ++o) b.AddObject("obj" + std::to_string(o));
  for (int a = 0; a < attrs; ++a) b.AddAttribute("attr" + std::to_string(a));
  for (int s = 0; s < sources; ++s) {
    for (int o = 0; o < objects; ++o) {
      for (int a = 0; a < attrs; ++a) {
        if (rng.NextBernoulli(0.7)) {
          const auto pick = rng.NextBounded(pool.size());
          EXPECT_TRUE(b.AddClaim(s, o, a, Value(pool[pick])).ok());
        }
      }
    }
  }
  if (b.num_claims() == 0) {
    EXPECT_TRUE(b.AddClaim(0, 0, 0, Value(pool[1])).ok());
  }
  return b.Build().MoveValue();
}

/// Mixed kinds on one dataset: some attributes carry strings, some ints,
/// some doubles — and one attribute mixes all three kinds on the same
/// item, where only the dictionary's kind-aware ordering keeps the
/// tie-break deterministic.
Dataset MixedKindsDataset(uint64_t seed) {
  Rng rng(seed);
  DatasetBuilder b;
  const int sources = 6;
  const int objects = 8;
  for (int s = 0; s < sources; ++s) b.AddSource("s" + std::to_string(s));
  for (int o = 0; o < objects; ++o) b.AddObject("o" + std::to_string(o));
  b.AddAttribute("str");
  b.AddAttribute("int");
  b.AddAttribute("dbl");
  b.AddAttribute("mixed");
  for (int s = 0; s < sources; ++s) {
    for (int o = 0; o < objects; ++o) {
      if (rng.NextBernoulli(0.8)) {
        EXPECT_TRUE(
            b.AddClaim(s, o, 0, Value("v" + std::to_string(rng.NextInt(0, 2))))
                .ok());
      }
      if (rng.NextBernoulli(0.8)) {
        EXPECT_TRUE(b.AddClaim(s, o, 1, Value(rng.NextInt(-2, 2))).ok());
      }
      if (rng.NextBernoulli(0.8)) {
        EXPECT_TRUE(
            b.AddClaim(s, o, 2,
                       Value(0.25 * static_cast<double>(rng.NextInt(0, 3))))
                .ok());
      }
      if (rng.NextBernoulli(0.8)) {
        const int kind = static_cast<int>(rng.NextBounded(3));
        Value v = kind == 0   ? Value("2")
                  : kind == 1 ? Value(int64_t{2})
                              : Value(2.0);
        EXPECT_TRUE(b.AddClaim(s, o, 3, std::move(v)).ok());
      }
    }
  }
  return b.Build().MoveValue();
}

/// One registry golden row: the run's iteration count, stop reason and a
/// digest of its serialized result, or the status code of a run that
/// returns an error.
std::string RegistryRow(const std::string& input_name,
                        const TruthDiscovery& algorithm,
                        const DatasetLike& data) {
  const std::string row = input_name + " " + std::string(algorithm.name());
  auto result = algorithm.Discover(data);
  if (!result.ok()) {
    return row + " status " +
           std::string(StatusCodeToString(result.status().code())) + "\n";
  }
  return row + " iterations " + std::to_string(result->iterations) +
         " stop " + std::string(StopReasonToString(result->stop_reason)) +
         " fnv1a64 " +
         testutil::Fnv1a64Hex(SerializeTruthDiscoveryResult(*result)) + "\n";
}

/// The rows of every registered algorithm on `data`.
std::string RegistryRows(const std::string& input_name,
                         const DatasetLike& data) {
  std::string rows;
  for (const std::string& name : RegisteredAlgorithms()) {
    auto algorithm = MakeAlgorithm(name);
    EXPECT_TRUE(algorithm.ok()) << name;
    if (!algorithm.ok()) continue;
    rows += RegistryRow(input_name, **algorithm, data);
  }
  return rows;
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
// stop reason and a digest of its serialized result, so a kernel rewrite
// that moves any output bit fails here. The inputs: each default-matrix
// cell, the flights simulator, the hand-built shapes above at seeds 1-3,
// attribute-restricted views of a sparse dataset, MajorityVote and Accu on
// every corruption of a synthetic claim CSV that still ingests, and TD-AC
// end to end.
TEST(ScenarioGenerateTest, RegistryResultsMatchGolden) {
  std::string actual;
  for (const ScenarioSpec& spec : DefaultScenarioMatrix(40, 99)) {
    auto generated = GenerateScenario(spec);
    ASSERT_TRUE(generated.ok()) << generated.status();
    actual += RegistryRows(spec.name, generated->dataset);
  }
  auto flights = GenerateFlights(7);
  ASSERT_TRUE(flights.ok()) << flights.status();
  actual += RegistryRows("flights_seed7", flights->dataset);

  const std::pair<const char*, Dataset (*)(uint64_t)> shapes[] = {
      {"skewed", SkewedDataset},
      {"sparse", SparseDataset},
      {"single_source", SingleSourceDataset},
      {"unicode", UnicodeStringsDataset},
      {"mixed", MixedKindsDataset}};
  for (const auto& [shape, build] : shapes) {
    for (uint64_t seed : {1, 2, 3}) {
      actual += RegistryRows(std::string(shape) + "_seed" +
                                 std::to_string(seed),
                             build(seed));
    }
  }

  // Views read the storage columns through their filtered id lists.
  const Dataset sparse = SparseDataset(11);
  std::vector<AttributeId> half;
  for (AttributeId a = 0; a < sparse.num_attributes(); a += 2) {
    half.push_back(a);
  }
  actual += RegistryRows("sparse_seed11_half_view", DatasetView(sparse, half));
  actual += RegistryRows("sparse_seed11_one_attribute_view",
                         DatasetView(sparse, std::vector<AttributeId>{0}));

  auto config = PaperSyntheticConfig(1, /*seed=*/7);
  ASSERT_TRUE(config.ok());
  config->num_objects = 20;
  auto synthetic = GenerateSynthetic(*config);
  ASSERT_TRUE(synthetic.ok());
  const std::string clean = DatasetToCsv(synthetic->dataset);
  MajorityVote vote;
  auto accu = MakeAlgorithm("Accu");
  ASSERT_TRUE(accu.ok());
  for (CorruptionMode mode : AllCorruptionModes()) {
    CorruptionOptions options;
    options.mode = mode;
    Result<Dataset> corrupted = DatasetFromCsv(CorruptClaimCsv(clean, options));
    if (!corrupted.ok()) continue;  // refused before any kernel ran
    const std::string input_name =
        "ds1_seed7_o20_" + std::string(CorruptionModeName(mode));
    actual += RegistryRow(input_name, vote, *corrupted);
    actual += RegistryRow(input_name, **accu, *corrupted);
  }

  SyntheticConfig planted;
  planted.num_objects = 25;
  planted.num_sources = 6;
  planted.planted_groups = {{0, 1}, {2, 3}, {4}};
  planted.reliability_levels = {0.9, 0.3};
  planted.seed = 5;
  auto grouped = GenerateSynthetic(planted);
  ASSERT_TRUE(grouped.ok());
  TdacOptions tdac_options;
  tdac_options.base = accu->get();
  const Tdac tdac(tdac_options);
  actual += RegistryRow("planted_o25_seed5", tdac, grouped->dataset);

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
