#include "td/accu.h"

#include <gtest/gtest.h>

#include "td/accu_sim.h"
#include "td/depen.h"
#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

TEST(AccuTest, MajorityOfReliableSourcesWins) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(20, &truth);
  Accu accu;
  auto r = accu.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i, d), *truth.Get(0, i)) << "item " << i;
  }
}

TEST(AccuTest, AccuracyEstimatesSeparateSources) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(30, &truth);
  Accu accu;
  auto r = accu.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->source_trust[0], 0.8);
  EXPECT_LT(r->source_trust[2], 0.2);
}

TEST(AccuTest, AccurateMinorityCanBeatInaccurateMajority) {
  // Two sources are right on 18 calibration items and disagree with three
  // wrong-but-agreeing sources on 6 contested items. Accuracy weighting
  // should let the accurate pair win the contested items, where majority
  // voting would not.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 18; ++i) {
    std::string attr = "cal" + std::to_string(i);
    // Calibration: everyone agrees except the bad trio is wrong in
    // different ways, revealing their low accuracy.
    specs.push_back({"acc1", "o", attr, 10 + i});
    specs.push_back({"acc2", "o", attr, 10 + i});
    specs.push_back({"bad1", "o", attr, 100 + i});
    specs.push_back({"bad2", "o", attr, 200 + i});
    specs.push_back({"bad3", "o", attr, 300 + i});
  }
  for (int i = 0; i < 6; ++i) {
    std::string attr = "contested" + std::to_string(i);
    specs.push_back({"acc1", "o", attr, 1000 + i});
    specs.push_back({"acc2", "o", attr, 1000 + i});
    specs.push_back({"bad1", "o", attr, 2000 + i});
    specs.push_back({"bad2", "o", attr, 2000 + i});
    specs.push_back({"bad3", "o", attr, 2000 + i});
  }
  Dataset d = BuildDataset(specs);
  AccuOptions opts;
  opts.detect_copying = false;  // isolate the accuracy mechanism
  Accu accu(opts);
  auto r = accu.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 6; ++i) {
    AttributeId a = 18 + i;
    EXPECT_EQ(*r->predicted.Get(0, a, d), Value(int64_t{1000 + i}))
        << "contested item " << i;
  }
}

TEST(AccuTest, CopyDetectionDiscountsCopiers) {
  // Dong-2009-style scenario. A copier trio shares identical values
  // everywhere; they are wrong on the 40 "contested" items. An honest pair
  // covers everything; two extra independent sources cover only the first
  // 20 contested items, so on those the honest camp (4 sources) outvotes
  // the trio and exposes its shared *false* values. Copy detection should
  // then discount the trio on the remaining 20 contested items, where it
  // otherwise outnumbers the honest pair 3 to 2.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 40; ++i) {
    std::string attr = "contested" + std::to_string(i);
    specs.push_back({"h1", "o", attr, 10000 + i});
    specs.push_back({"h2", "o", attr, 10000 + i});
    specs.push_back({"c1", "o", attr, 20000 + i});
    specs.push_back({"c2", "o", attr, 20000 + i});
    specs.push_back({"c3", "o", attr, 20000 + i});
    if (i < 20) {
      specs.push_back({"i1", "o", attr, 10000 + i});
      specs.push_back({"i2", "o", attr, 10000 + i});
    }
  }
  Dataset d = BuildDataset(specs);

  Accu with_copy;  // copy detection on by default
  auto r = with_copy.Discover(d);
  ASSERT_TRUE(r.ok());
  int honest_wins_uncovered = 0;
  for (int i = 20; i < 40; ++i) {
    if (*r->predicted.Get(0, i, d) == Value(int64_t{10000 + i})) {
      ++honest_wins_uncovered;
    }
  }
  EXPECT_GT(honest_wins_uncovered, 15)
      << "copier trio should be discounted on the 3-vs-2 items";

  // Without copy detection the trio wins those items by raw majority.
  AccuOptions no_copy_opts;
  no_copy_opts.detect_copying = false;
  Accu no_copy(no_copy_opts);
  auto r2 = no_copy.Discover(d);
  ASSERT_TRUE(r2.ok());
  int trio_wins_uncovered = 0;
  for (int i = 20; i < 40; ++i) {
    if (*r2->predicted.Get(0, i, d) == Value(int64_t{20000 + i})) {
      ++trio_wins_uncovered;
    }
  }
  EXPECT_GT(trio_wins_uncovered, 15);
}

TEST(AccuTest, IterationsReportedAndBounded) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  AccuOptions opts;
  opts.base.max_iterations = 4;
  Accu accu(opts);
  auto r = accu.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->iterations, 1);
  EXPECT_LE(r->iterations, 4);
}

TEST(AccuTest, ConfidencesAreProbabilities) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  Accu accu;
  auto r = accu.Discover(d);
  ASSERT_TRUE(r.ok());
  for (double conf : r->predicted.confidences) {
    EXPECT_GE(conf, 0.0);
    EXPECT_LE(conf, 1.0);
  }
}

TEST(DepenTest, UniformAccuracyStillFindsMajorityTruth) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  Depen depen;
  auto r = depen.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i, d), *truth.Get(0, i));
  }
}

TEST(DepenTest, OptionsAreForcedUniform) {
  AccuOptions opts;
  opts.per_source_accuracy = true;  // should be overridden
  Depen depen(opts);
  EXPECT_FALSE(depen.options().per_source_accuracy);
  EXPECT_EQ(depen.name(), "DEPEN");
}

TEST(AccuSimTest, SimilarValuesReinforceEachOther) {
  // 1000/1001/1002 are near-identical numerics; 5000 is far. The close
  // cluster has 5 supporters split 2/2/1 across values, the far value has
  // 3: without similarity 5000 wins every per-value count, with similarity
  // the close cluster's values reinforce each other and win.
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1000},
      {"s2", "o", "a", 1000},
      {"s3", "o", "a", 1001},
      {"s4", "o", "a", 1001},
      {"s5", "o", "a", 1002},
      {"s6", "o", "a", 5000},
      {"s7", "o", "a", 5000},
      {"s8", "o", "a", 5000},
  });
  AccuOptions opts = AccuSim::DefaultOptions();
  opts.detect_copying = false;
  AccuSim accu_sim(opts);
  auto r = accu_sim.Discover(d);
  ASSERT_TRUE(r.ok());
  const Value elected = *r->predicted.Get(0, 0, d);
  EXPECT_TRUE(elected == Value(int64_t{1000}) ||
              elected == Value(int64_t{1001}) ||
              elected == Value(int64_t{1002}))
      << "elected " << elected.ToString();
}

TEST(AccuSimTest, DefaultsEnableSimilarity) {
  AccuSim s;
  EXPECT_GT(s.options().similarity_weight, 0.0);
  EXPECT_EQ(s.name(), "AccuSim");
}

TEST(AccuTest, NameIsStable) { EXPECT_EQ(Accu().name(), "Accu"); }

}  // namespace
}  // namespace tdac
