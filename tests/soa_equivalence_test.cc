// Differential equivalence suite for the columnar (structure-of-arrays)
// kernel paths: every registered algorithm, run twice on the same data —
// once with the legacy per-claim kernels (SetSoaKernelsEnabled(false)),
// once with the SoA column kernels — must produce *bit-identical* results:
// the same predicted values, the same confidence/trust doubles to the last
// bit, the same iteration counts, convergence flags, and StopReasons. The
// comparison runs through SerializeTruthDiscoveryResult, which renders
// every double as its IEEE-754 bits, so "close" can never pass for
// "equal".
//
// Legs: synthetic shapes (skewed, sparse, single-source, unicode strings,
// mixed value kinds) × all algorithms; restriction through DatasetView;
// TD-AC end to end; the fault-injection corpus; and checkpoint/resume
// (a resumed SoA run vs. an uninterrupted legacy run).
//
// This binary is registered twice in tests/CMakeLists.txt — default
// threads and TDAC_THREADS=8 — so both kernel paths are also exercised
// under the deterministic thread pool. CI additionally runs it under ASan
// and TSan via the sanitizer matrix (scripts/check.sh).

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.h"
#include "common/random.h"
#include "data/dataset.h"
#include "data/dataset_builder.h"
#include "data/dataset_io.h"
#include "data/dataset_view.h"
#include "data/soa_mode.h"
#include "gen/corrupt.h"
#include "gen/synthetic.h"
#include "td/registry.h"
#include "td/truth_discovery.h"
#include "tdac/tdac.h"
#include "test_util.h"

namespace tdac {
namespace {

/// Bit-exact comparison via the checkpoint serialization (doubles as
/// IEEE-754 bits, predictions in sorted key order), plus the individual
/// fields for a readable failure message when something does diverge.
void ExpectBitIdenticalResults(const TruthDiscoveryResult& legacy,
                               const TruthDiscoveryResult& soa,
                               const std::string& context) {
  EXPECT_EQ(legacy.predicted, soa.predicted) << context;
  EXPECT_EQ(legacy.iterations, soa.iterations) << context;
  EXPECT_EQ(legacy.converged, soa.converged) << context;
  EXPECT_EQ(legacy.stop_reason, soa.stop_reason) << context;
  ASSERT_EQ(legacy.source_trust.size(), soa.source_trust.size()) << context;
  for (size_t s = 0; s < legacy.source_trust.size(); ++s) {
    EXPECT_EQ(legacy.source_trust[s], soa.source_trust[s])
        << context << ": source " << s;
  }
  EXPECT_EQ(SerializeTruthDiscoveryResult(legacy),
            SerializeTruthDiscoveryResult(soa))
      << context;
}

/// Runs `algo` on `data` down both kernel paths and checks equivalence
/// (status equality when either side fails). Leaves SoA mode enabled (the
/// process default).
void ExpectPathsAgree(const TruthDiscovery& algo, const DatasetLike& data,
                      const std::string& context) {
  SetSoaKernelsEnabled(false);
  Result<TruthDiscoveryResult> legacy = algo.Discover(data);
  SetSoaKernelsEnabled(true);
  Result<TruthDiscoveryResult> soa = algo.Discover(data);
  ASSERT_EQ(legacy.ok(), soa.ok()) << context;
  if (!legacy.ok()) {
    EXPECT_EQ(legacy.status().code(), soa.status().code()) << context;
    return;
  }
  ExpectBitIdenticalResults(*legacy, *soa, context);
}

// ---------------------------------------------------------------------------
// Synthetic shapes
// ---------------------------------------------------------------------------

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

Dataset ShapeDataset(const std::string& shape, uint64_t seed) {
  if (shape == "skewed") return SkewedDataset(seed);
  if (shape == "sparse") return SparseDataset(seed);
  if (shape == "single_source") return SingleSourceDataset(seed);
  if (shape == "unicode") return UnicodeStringsDataset(seed);
  return MixedKindsDataset(seed);
}

const std::vector<std::string>& AllShapes() {
  static const std::vector<std::string>* shapes = new std::vector<std::string>{
      "skewed", "sparse", "single_source", "unicode", "mixed"};
  return *shapes;
}

// ---------------------------------------------------------------------------
// Leg 1: all algorithms × shapes × seeds
// ---------------------------------------------------------------------------

class SoaEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(SoaEquivalenceTest, LegacyAndSoaPathsAreBitIdentical) {
  const auto& [name, shape] = GetParam();
  auto algo = MakeAlgorithm(name);
  ASSERT_TRUE(algo.ok());
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    Dataset d = ShapeDataset(shape, seed);
    ExpectPathsAgree(**algo, d,
                     name + "/" + shape + "/seed" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsTimesShapes, SoaEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(RegisteredAlgorithms()),
                       ::testing::ValuesIn(AllShapes())),
    [](const auto& info) {
      std::string name;
      for (char c : std::get<0>(info.param)) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name + "_" + std::get<1>(info.param);
    });

// ---------------------------------------------------------------------------
// Leg 2: restriction — both paths must agree on DatasetViews, whose
// ClaimsOn/claim_ids reference the storage columns through the view's
// filtered id lists.
// ---------------------------------------------------------------------------

class SoaViewEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SoaViewEquivalenceTest, PathsAgreeOnAttributeRestrictedViews) {
  const std::string& name = GetParam();
  auto algo = MakeAlgorithm(name);
  ASSERT_TRUE(algo.ok());
  Dataset d = SparseDataset(11);
  // Every-other-attribute view plus a single-attribute view.
  std::vector<AttributeId> half;
  for (AttributeId a = 0; a < d.num_attributes(); a += 2) half.push_back(a);
  DatasetView half_view(d, half);
  ExpectPathsAgree(**algo, half_view, name + "/half-view");
  DatasetView one_view(d, std::vector<AttributeId>{0});
  ExpectPathsAgree(**algo, one_view, name + "/one-attribute-view");
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SoaViewEquivalenceTest,
                         ::testing::ValuesIn(RegisteredAlgorithms()),
                         [](const auto& info) {
                           std::string name;
                           for (char c : info.param) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               name += c;
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Leg 3: TD-AC end to end (partition sweep, per-group runs through the
// RestrictionCache, refinement) — the full pipeline must be path-blind.
// ---------------------------------------------------------------------------

TEST(SoaTdacEquivalenceTest, FullPipelineIsBitIdentical) {
  SyntheticConfig config;
  config.num_objects = 25;
  config.num_sources = 6;
  config.planted_groups = {{0, 1}, {2, 3}, {4}};
  config.reliability_levels = {0.9, 0.3};
  config.seed = 5;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());

  auto base = MakeAlgorithm("Accu");
  ASSERT_TRUE(base.ok());
  TdacOptions opts;
  opts.base = base->get();
  Tdac tdac(opts);
  ExpectPathsAgree(tdac, data->dataset, "TD-AC end-to-end");
}

// ---------------------------------------------------------------------------
// Leg 4: fault injection — every corruption mode, ingested through the
// CSV path; both kernel paths must agree on the refusal/result, including
// StopReason labels on degraded outcomes.
// ---------------------------------------------------------------------------

TEST(SoaFaultCorpusEquivalenceTest, PathsAgreeOnEveryCorruptionMode) {
  auto config = PaperSyntheticConfig(1, /*seed=*/7);
  ASSERT_TRUE(config.ok());
  config->num_objects = 20;
  auto data = GenerateSynthetic(*config);
  ASSERT_TRUE(data.ok());
  const std::string clean = DatasetToCsv(data->dataset);

  auto vote = MakeAlgorithm("MajorityVote");
  auto accu = MakeAlgorithm("Accu");
  ASSERT_TRUE(vote.ok());
  ASSERT_TRUE(accu.ok());
  for (CorruptionMode mode : AllCorruptionModes()) {
    CorruptionOptions options;
    options.mode = mode;
    const std::string context = std::string(CorruptionModeName(mode));
    Result<Dataset> corrupted =
        DatasetFromCsv(CorruptClaimCsv(clean, options));
    if (!corrupted.ok()) continue;  // refused before any kernel ran
    ExpectPathsAgree(**vote, *corrupted, context + " / MajorityVote");
    ExpectPathsAgree(**accu, *corrupted, context + " / Accu");
  }
}

// ---------------------------------------------------------------------------
// Leg 5: checkpoint/resume — an SoA run resumed from checkpoints written
// by an earlier SoA run must equal a legacy run that never checkpointed.
// ---------------------------------------------------------------------------

TEST(SoaCheckpointEquivalenceTest, ResumedSoaRunMatchesLegacyUninterrupted) {
  testutil::ScratchDir scratch;
  const std::string& dir = scratch.path();

  SyntheticConfig config;
  config.num_objects = 20;
  config.num_sources = 5;
  config.planted_groups = {{0, 1}, {2}};
  config.reliability_levels = {0.9, 0.4};
  config.seed = 13;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());

  auto base = MakeAlgorithm("Accu");
  ASSERT_TRUE(base.ok());

  SetSoaKernelsEnabled(false);
  TdacOptions plain;
  plain.base = base->get();
  Tdac legacy_tdac(plain);
  auto legacy = legacy_tdac.Discover(data->dataset);
  ASSERT_TRUE(legacy.ok());

  SetSoaKernelsEnabled(true);
  CheckpointOptions ckpt_options;
  ckpt_options.dir = dir;
  ckpt_options.interval_ms = 0.0;
  // First SoA run populates the slots...
  {
    Checkpointer store(ckpt_options);
    TdacOptions opts;
    opts.base = base->get();
    opts.checkpointer = &store;
    Tdac tdac(opts);
    ASSERT_TRUE(tdac.Discover(data->dataset).ok());
  }
  // ...the second resumes from them; replayed state must splice into the
  // SoA kernels without perturbing a single bit.
  ckpt_options.resume = true;
  Checkpointer resume(ckpt_options);
  TdacOptions opts;
  opts.base = base->get();
  opts.checkpointer = &resume;
  Tdac tdac(opts);
  auto resumed = tdac.Discover(data->dataset);
  ASSERT_TRUE(resumed.ok());
  ExpectBitIdenticalResults(*legacy, *resumed, "checkpoint/resume");
}

}  // namespace
}  // namespace tdac
