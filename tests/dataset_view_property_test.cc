// Bit-identity property tests for the zero-copy restriction path: for
// every registered algorithm, `Discover(DatasetView)` must produce exactly
// the same result — predicted values, confidences, trust, iteration count,
// convergence flag — as running on a materialized copy of the same subset.
// The item index all of them read through is checked against the claim
// columns on the same random datasets.
//
// This suite is registered twice in tests/CMakeLists.txt: once with the
// default thread count and once with TDAC_THREADS=8, so the shared
// RestrictionCache inside Tdac/GroupRunner is also exercised under the
// thread pool.

#include <algorithm>
#include <cctype>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/dataset.h"
#include "data/dataset_builder.h"
#include "data/dataset_view.h"
#include "gen/synthetic.h"
#include "td/accu.h"
#include "td/registry.h"
#include "tdac/tdac.h"

namespace tdac {
namespace {

/// Random dataset driven by a seed: random counts, random claims,
/// guaranteed at least one claim (same scheme as property_test.cc).
Dataset RandomDataset(uint64_t seed) {
  Rng rng(seed);
  int num_sources = static_cast<int>(2 + rng.NextBounded(6));
  int num_objects = static_cast<int>(1 + rng.NextBounded(4));
  int num_attrs = static_cast<int>(1 + rng.NextBounded(6));
  DatasetBuilder b;
  for (int s = 0; s < num_sources; ++s) b.AddSource("s" + std::to_string(s));
  for (int o = 0; o < num_objects; ++o) b.AddObject("o" + std::to_string(o));
  for (int a = 0; a < num_attrs; ++a) b.AddAttribute("a" + std::to_string(a));
  size_t added = 0;
  for (int s = 0; s < num_sources; ++s) {
    for (int o = 0; o < num_objects; ++o) {
      for (int a = 0; a < num_attrs; ++a) {
        if (rng.NextBernoulli(0.6)) {
          EXPECT_TRUE(b.AddClaim(s, o, a, Value(rng.NextInt(0, 9))).ok());
          ++added;
        }
      }
    }
  }
  if (added == 0) {
    EXPECT_TRUE(b.AddClaim(0, 0, 0, Value(int64_t{1})).ok());
  }
  return b.Build().MoveValue();
}

/// A random attribute subset; seeds 0 and 1 pin the edge cases.
std::vector<AttributeId> RandomSubset(const Dataset& d, uint64_t seed) {
  if (seed % 5 == 0) return {};                          // empty subset
  if (seed % 5 == 1) {                                   // single attribute
    Rng rng(seed);
    return {static_cast<AttributeId>(
        rng.NextBounded(static_cast<uint64_t>(d.num_attributes())))};
  }
  Rng rng(seed);
  std::vector<AttributeId> subset;
  for (int a = 0; a < d.num_attributes(); ++a) {
    if (rng.NextBernoulli(0.5)) subset.push_back(a);
  }
  return subset;
}

/// Exact equality, including every floating-point field: the view path
/// must be bit-identical to the copy path, not merely close.
void ExpectBitIdentical(const TruthDiscoveryResult& a,
                        const TruthDiscoveryResult& b) {
  EXPECT_EQ(a.predicted, b.predicted);
  ASSERT_EQ(a.confidence.size(), b.confidence.size());
  for (const auto& [key, conf] : a.confidence) {
    auto it = b.confidence.find(key);
    ASSERT_NE(it, b.confidence.end());
    EXPECT_EQ(conf, it->second) << "confidence differs on key " << key;
  }
  ASSERT_EQ(a.source_trust.size(), b.source_trust.size());
  for (size_t s = 0; s < a.source_trust.size(); ++s) {
    EXPECT_EQ(a.source_trust[s], b.source_trust[s]) << "source " << s;
  }
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

class ViewBitIdentityTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(ViewBitIdentityTest, DiscoverOnViewEqualsDiscoverOnCopy) {
  const auto& [name, seed] = GetParam();
  Dataset d = RandomDataset(seed);
  std::vector<AttributeId> subset = RandomSubset(d, seed);

  DatasetView view(d, subset);
  Dataset copy = d.RestrictToAttributes(subset);
  Dataset materialized = view.Materialize();
  ASSERT_EQ(view.num_claims(), copy.num_claims());

  auto algo = MakeAlgorithm(name);
  ASSERT_TRUE(algo.ok());
  auto on_view = (*algo)->Discover(view);
  auto on_copy = (*algo)->Discover(copy);
  auto on_materialized = (*algo)->Discover(materialized);

  // Both paths must agree even on failure (e.g. the empty subset).
  ASSERT_EQ(on_view.ok(), on_copy.ok()) << name;
  ASSERT_EQ(on_view.ok(), on_materialized.ok()) << name;
  if (!on_view.ok()) {
    EXPECT_EQ(on_view.status().code(), on_copy.status().code());
    return;
  }
  ExpectBitIdentical(*on_view, *on_copy);
  ExpectBitIdentical(*on_view, *on_materialized);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsTimesSeeds, ViewBitIdentityTest,
    ::testing::Combine(::testing::ValuesIn(RegisteredAlgorithms()),
                       ::testing::Values(0ull, 1ull, 2ull, 3ull, 4ull, 5ull,
                                         6ull, 7ull)),
    [](const auto& info) {
      // Registry names like "2-Estimates" contain characters gtest
      // forbids in test names; keep only alphanumerics.
      std::string name;
      for (char c : std::get<0>(info.param)) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

/// Checks the item index `data` reads through against the storage
/// columns: for every (object, attribute) in the id space, ClaimsOn lists
/// the ascending ids of `data`'s claims on it and is empty exactly when
/// DataItems() lacks the item; every claim's claim_items() row holds its
/// key.
void ExpectItemIndexMatchesColumns(const DatasetLike& data) {
  const Dataset& s = data.storage();
  const std::vector<uint64_t>& items = data.DataItems();
  for (ObjectId o = 0; o < data.num_objects(); ++o) {
    for (AttributeId a = 0; a < data.num_attributes(); ++a) {
      std::vector<int32_t> expected;
      for (int32_t id : data.claim_ids()) {
        const auto i = static_cast<size_t>(id);
        if (s.claim_objects()[i] == o && s.claim_attributes()[i] == a) {
          expected.push_back(id);
        }
      }
      const std::span<const int32_t> on = data.ClaimsOn(o, a);
      EXPECT_EQ(std::vector<int32_t>(on.begin(), on.end()), expected)
          << "object " << o << ", attribute " << a;
      EXPECT_EQ(std::binary_search(items.begin(), items.end(),
                                   ObjectAttrKey(o, a)),
                !expected.empty())
          << "object " << o << ", attribute " << a;
    }
  }
  for (int32_t id : data.claim_ids()) {
    const auto i = static_cast<size_t>(id);
    EXPECT_EQ(s.DataItems()[static_cast<size_t>(s.claim_items()[i])],
              ObjectAttrKey(s.claim_objects()[i], s.claim_attributes()[i]))
        << "claim " << id;
  }
}

class ItemIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ItemIndexPropertyTest, ClaimsOnMatchesTheColumns) {
  // RandomDataset adds claims source-major, so the index has to regroup
  // them by item.
  Dataset d = RandomDataset(GetParam());
  ExpectItemIndexMatchesColumns(d);
  DatasetView by_attribute(d, RandomSubset(d, GetParam()));
  ExpectItemIndexMatchesColumns(by_attribute);
  Rng rng(GetParam() + 100);
  std::vector<ObjectId> objects;
  for (ObjectId o = 0; o < d.num_objects(); ++o) {
    if (rng.NextBernoulli(0.5)) objects.push_back(o);
  }
  DatasetView by_object(d, DatasetView::ObjectAxis{}, objects);
  ExpectItemIndexMatchesColumns(by_object);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItemIndexPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

class ViewOfViewBitIdentityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ViewOfViewBitIdentityTest, NestedViewEqualsDirectCopy) {
  Dataset d = RandomDataset(GetParam() ^ 0xabcdefull);
  std::vector<AttributeId> outer = RandomSubset(d, GetParam() + 2);
  // Inner subset: every other attribute of the outer one.
  std::vector<AttributeId> inner;
  for (size_t i = 0; i < outer.size(); i += 2) inner.push_back(outer[i]);

  DatasetView outer_view(d, outer);
  DatasetView nested(outer_view, inner);
  Dataset copy = d.RestrictToAttributes(inner);
  ASSERT_EQ(nested.num_claims(), copy.num_claims());

  Accu base;
  auto on_view = base.Discover(nested);
  auto on_copy = base.Discover(copy);
  ASSERT_EQ(on_view.ok(), on_copy.ok());
  if (on_view.ok()) ExpectBitIdentical(*on_view, *on_copy);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewOfViewBitIdentityTest,
                         ::testing::Values(2ull, 3ull, 4ull, 5ull, 6ull));

class TdacViewBitIdentityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TdacViewBitIdentityTest, FullPipelineOnViewEqualsCopy) {
  // End to end through the cached-view path: TD-AC (whose RunPass fans
  // groups out over the thread pool and shares a RestrictionCache across
  // refinement rounds) must give bit-identical output whether its input is
  // a Dataset or a DatasetView of the same claims.
  SyntheticConfig config;
  config.num_objects = 25;
  config.num_sources = 6;
  config.planted_groups = {{0, 1}, {2, 3}, {4}};
  config.reliability_levels = {0.9, 0.3};
  config.seed = GetParam();
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  const Dataset& d = data->dataset;

  std::vector<AttributeId> all = d.ActiveAttributes();
  DatasetView view(d, all);
  ASSERT_EQ(view.num_claims(), d.num_claims());

  Accu base;
  TdacOptions opts;
  opts.base = &base;
  Tdac tdac(opts);
  auto on_view = tdac.Discover(view);
  auto on_copy = tdac.Discover(d);
  ASSERT_TRUE(on_view.ok());
  ASSERT_TRUE(on_copy.ok());
  ExpectBitIdentical(*on_view, *on_copy);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TdacViewBitIdentityTest,
                         ::testing::Values(21ull, 22ull, 23ull));

}  // namespace
}  // namespace tdac
