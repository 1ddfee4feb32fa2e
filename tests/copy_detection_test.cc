#include "td/copy_detection.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace tdac {
namespace {

using td_internal::GroupClaimsByItem;
using testutil::BuildDataset;
using testutil::ClaimSpec;

/// Selects the majority value's slot per item (helper for tests).
std::vector<size_t> MajoritySelection(const td_internal::ConflictStore& store) {
  std::vector<size_t> selected(store.num_items(), 0);
  for (size_t it = 0; it < store.num_items(); ++it) {
    size_t best = store.first_slot(it);
    for (size_t v = best + 1; v < store.end_slot(it); ++v) {
      if (store.SupportersOf(v).size() > store.SupportersOf(best).size()) {
        best = v;
      }
    }
    selected[it] = best;
  }
  return selected;
}

TEST(CopyDetectionTest, SharedFalseValuesImplyDependence) {
  // s3 and s4 share the same *false* value on every item; s1/s2 provide the
  // (majority) truth independently.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 30; ++i) {
    std::string attr = "a" + std::to_string(i);
    specs.push_back({"s1", "o", attr, 10 + i});
    specs.push_back({"s2", "o", attr, 10 + i});
    specs.push_back({"s3", "o", attr, 5000 + i});
    specs.push_back({"s4", "o", attr, 5000 + i});
  }
  Dataset d = BuildDataset(specs);
  const auto store = GroupClaimsByItem(d);
  auto selected = MajoritySelection(store);
  std::vector<double> accuracy(4, 0.8);
  const CoClaimCounts counts = CountCoClaims(store, accuracy.size());
  CopyDetectionParams params;
  DependenceMatrix m =
      DetectCopying(store, counts, selected, accuracy, params);
  // The copier pair (ids 2 and 3) should look far more dependent than the
  // honest pair (ids 0 and 1) that only shares *true* values.
  EXPECT_GT(m.prob(2, 3), 0.9);
  EXPECT_GT(m.prob(2, 3), m.prob(0, 1));
}

TEST(CopyDetectionTest, SharedTrueValuesExculpateByDefault) {
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 30; ++i) {
    std::string attr = "a" + std::to_string(i);
    specs.push_back({"s1", "o", attr, 10 + i});
    specs.push_back({"s2", "o", attr, 10 + i});
    specs.push_back({"s3", "o", attr, 7000 + i});
  }
  Dataset d = BuildDataset(specs);
  const auto store = GroupClaimsByItem(d);
  auto selected = MajoritySelection(store);
  std::vector<double> accuracy(3, 0.8);
  const CoClaimCounts counts = CountCoClaims(store, accuracy.size());
  CopyDetectionParams params;
  DependenceMatrix m =
      DetectCopying(store, counts, selected, accuracy, params);
  // Honest agreement on truths is (weakly) exculpatory in robust mode: the
  // pair shares fewer false values than even an independent pair under a
  // noisy election would.
  EXPECT_LE(m.prob(0, 1), params.alpha + 1e-6);

  // The strict Dong-2009 likelihood instead accumulates same-true evidence.
  params.count_true_agreement = true;
  DependenceMatrix strict =
      DetectCopying(store, counts, selected, accuracy, params);
  EXPECT_GT(strict.prob(0, 1), m.prob(0, 1));
}

TEST(CopyDetectionTest, DisagreeingSourcesAreIndependent) {
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 20; ++i) {
    std::string attr = "a" + std::to_string(i);
    specs.push_back({"s1", "o", attr, 10 + i});
    specs.push_back({"s2", "o", attr, 900 + i});
  }
  Dataset d = BuildDataset(specs);
  const auto store = GroupClaimsByItem(d);
  auto selected = MajoritySelection(store);
  std::vector<double> accuracy(2, 0.8);
  const CoClaimCounts counts = CountCoClaims(store, accuracy.size());
  DependenceMatrix m =
      DetectCopying(store, counts, selected, accuracy, CopyDetectionParams{});
  EXPECT_LT(m.prob(0, 1), 0.2);
}

TEST(CopyDetectionTest, NoCommonItemsMeansZeroProbability) {
  Dataset d = BuildDataset({
      {"s1", "o", "a1", 1},
      {"s2", "o", "a2", 2},
  });
  const auto store = GroupClaimsByItem(d);
  auto selected = MajoritySelection(store);
  std::vector<double> accuracy(2, 0.8);
  const CoClaimCounts counts = CountCoClaims(store, accuracy.size());
  DependenceMatrix m =
      DetectCopying(store, counts, selected, accuracy, CopyDetectionParams{});
  EXPECT_DOUBLE_EQ(m.prob(0, 1), 0.0);
}

TEST(CopyDetectionTest, MatrixIsSymmetric) {
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 10; ++i) {
    std::string attr = "a" + std::to_string(i);
    specs.push_back({"s1", "o", attr, 10 + i});
    specs.push_back({"s2", "o", attr, 10 + i});
    specs.push_back({"s3", "o", attr, 99 + i});
  }
  Dataset d = BuildDataset(specs);
  const auto store = GroupClaimsByItem(d);
  auto selected = MajoritySelection(store);
  std::vector<double> accuracy(3, 0.7);
  const CoClaimCounts counts = CountCoClaims(store, accuracy.size());
  DependenceMatrix m =
      DetectCopying(store, counts, selected, accuracy, CopyDetectionParams{});
  for (SourceId a = 0; a < 3; ++a) {
    for (SourceId b = 0; b < 3; ++b) {
      EXPECT_DOUBLE_EQ(m.prob(a, b), m.prob(b, a));
    }
  }
}

TEST(CopyDetectionTest, ElectionNoiseFloorForgivesRareFalseShares) {
  // An honest pair that agrees on the truth 57 times and shares a "false"
  // value 3 times (a ~5% election-error artifact) must stay independent
  // under the default noise floor, but gets flagged when the floor is
  // removed.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 60; ++i) {
    std::string attr = "a" + std::to_string(i);
    specs.push_back({"s1", "o", attr, 10 + i});
    specs.push_back({"s2", "o", attr, 10 + i});
    // Three dissenters so the majority elects their value on 3 items,
    // making the honest pair's shared value "false" there.
    int64_t dissent = (i < 3) ? 7000 + i : 10 + i;
    specs.push_back({"d1", "o", attr, dissent});
    specs.push_back({"d2", "o", attr, dissent});
    specs.push_back({"d3", "o", attr, dissent});
  }
  Dataset d = BuildDataset(specs);
  const auto store = GroupClaimsByItem(d);
  auto selected = MajoritySelection(store);
  std::vector<double> accuracy(5, 0.9);
  const CoClaimCounts counts = CountCoClaims(store, accuracy.size());

  CopyDetectionParams with_floor;
  with_floor.election_noise = 0.05;
  DependenceMatrix m1 =
      DetectCopying(store, counts, selected, accuracy, with_floor);
  EXPECT_LT(m1.prob(0, 1), 0.5);

  CopyDetectionParams no_floor = with_floor;
  no_floor.election_noise = 0.0;
  DependenceMatrix m2 =
      DetectCopying(store, counts, selected, accuracy, no_floor);
  EXPECT_GT(m2.prob(0, 1), m1.prob(0, 1));
}

TEST(CopyDetectionTest, DisagreementWeightExculpates) {
  // A pair sharing a couple of false values but disagreeing on many items:
  // raising the disagreement weight must lower the dependence probability.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 40; ++i) {
    std::string attr = "a" + std::to_string(i);
    specs.push_back({"s1", "o", attr, 10 + i});
    specs.push_back({"s2", "o", attr, 10 + i});
    int64_t v3 = (i < 3) ? 9000 : 5000 + i;     // shares 9000 with s4 3x
    int64_t v4 = (i < 3) ? 9000 : 6000 + i;
    specs.push_back({"s3", "o", attr, v3});
    specs.push_back({"s4", "o", attr, v4});
  }
  Dataset d = BuildDataset(specs);
  const auto store = GroupClaimsByItem(d);
  auto selected = MajoritySelection(store);
  std::vector<double> accuracy(4, 0.7);
  const CoClaimCounts counts = CountCoClaims(store, accuracy.size());

  CopyDetectionParams light;
  light.disagreement_weight = 0.0;
  CopyDetectionParams heavy;
  heavy.disagreement_weight = 1.0;
  DependenceMatrix ml =
      DetectCopying(store, counts, selected, accuracy, light);
  DependenceMatrix mh =
      DetectCopying(store, counts, selected, accuracy, heavy);
  EXPECT_LE(mh.prob(2, 3), ml.prob(2, 3));
}

TEST(CopyDetectionTest, CountCoClaimsCountsAgreementsAndDisagreements) {
  // a0: s1 = s2 != s3.  a1: s1 != s2 = s3.  a2: s1 = s3, s2 silent.
  Dataset d = BuildDataset({{"s1", "o", "a0", 1},
                            {"s2", "o", "a0", 1},
                            {"s3", "o", "a0", 2},
                            {"s1", "o", "a1", 5},
                            {"s2", "o", "a1", 6},
                            {"s3", "o", "a1", 6},
                            {"s1", "o", "a2", 7},
                            {"s3", "o", "a2", 7}});
  ASSERT_EQ(d.source_name(0), "s1");
  ASSERT_EQ(d.source_name(1), "s2");
  ASSERT_EQ(d.source_name(2), "s3");
  const CoClaimCounts counts = CountCoClaims(GroupClaimsByItem(d), 3);
  ASSERT_EQ(counts.num_sources, 3u);
  // Cell a * 3 + b for a < b; the other cells stay zero.
  EXPECT_EQ(counts.same, (std::vector<int>{0, 1, 1, 0, 0, 1, 0, 0, 0}));
  EXPECT_EQ(counts.different, (std::vector<int>{0, 1, 2, 0, 0, 1, 0, 0, 0}));
}

TEST(CopyDetectionTest, SelectionOutsideAnItemElectsNone) {
  // Every item has a value only s3 claims. Electing it leaves no pair
  // agreeing on a true value, exactly like electing no slot of the item.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 12; ++i) {
    const std::string attr = "a" + std::to_string(i);
    specs.push_back({"s1", "o", attr, i});
    specs.push_back({"s2", "o", attr, i});
    specs.push_back({"s3", "o", attr, 100 + i});
  }
  Dataset d = BuildDataset(specs);
  const auto store = GroupClaimsByItem(d);
  const std::vector<double> accuracy(3, 0.7);
  std::vector<size_t> lone(store.num_items());
  std::vector<size_t> outside(store.num_items());
  for (size_t it = 0; it < store.num_items(); ++it) {
    for (size_t v = store.first_slot(it); v < store.end_slot(it); ++v) {
      if (store.SupportersOf(v).size() == 1) lone[it] = v;
    }
    // Past every slot, or item 0's first slot for every later item.
    outside[it] = it % 2 == 0 ? store.num_slots() : 0;
  }
  const CoClaimCounts counts = CountCoClaims(store, accuracy.size());
  const DependenceMatrix by_lone = DetectCopying(
      store, counts, lone, accuracy, CopyDetectionParams{});
  const DependenceMatrix by_outside = DetectCopying(
      store, counts, outside, accuracy, CopyDetectionParams{});
  for (SourceId a = 0; a < 3; ++a) {
    for (SourceId b = 0; b < 3; ++b) {
      EXPECT_EQ(by_lone.prob(a, b), by_outside.prob(a, b)) << a << "," << b;
    }
  }
  // s1 and s2 share a value the election calls false on every item; s1
  // and s3 never agree.
  EXPECT_GT(by_lone.prob(0, 1), by_lone.prob(0, 2));
}

TEST(CopyDetectionTest, ProbabilitiesAreInUnitInterval) {
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 25; ++i) {
    std::string attr = "a" + std::to_string(i);
    specs.push_back({"s1", "o", attr, i});
    specs.push_back({"s2", "o", attr, i % 3 == 0 ? i : 1000 + i});
    specs.push_back({"s3", "o", attr, 1000 + i});
  }
  Dataset d = BuildDataset(specs);
  const auto store = GroupClaimsByItem(d);
  auto selected = MajoritySelection(store);
  std::vector<double> accuracy(3, 0.6);
  const CoClaimCounts counts = CountCoClaims(store, accuracy.size());
  DependenceMatrix m =
      DetectCopying(store, counts, selected, accuracy, CopyDetectionParams{});
  for (SourceId a = 0; a < 3; ++a) {
    for (SourceId b = 0; b < 3; ++b) {
      EXPECT_GE(m.prob(a, b), 0.0);
      EXPECT_LE(m.prob(a, b), 1.0);
    }
  }
}

}  // namespace
}  // namespace tdac
