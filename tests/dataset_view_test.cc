#include "data/dataset_view.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "gen/synthetic.h"
#include "td/accu.h"
#include "tdac/tdac.h"
#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

/// Three sources, two objects, three attributes, with a hole (s2 skips a2).
Dataset SmallDataset() {
  return BuildDataset({
      {"s0", "o0", "a0", 1},
      {"s0", "o0", "a1", 2},
      {"s0", "o1", "a2", 3},
      {"s1", "o0", "a0", 1},
      {"s1", "o1", "a1", 5},
      {"s1", "o1", "a2", 6},
      {"s2", "o0", "a0", 7},
      {"s2", "o0", "a1", 2},
  });
}

/// Asserts the view exposes exactly the same logical contents as `copy`
/// (the materialized restriction of the same subset).
void ExpectViewMatchesCopy(const DatasetLike& view, const Dataset& copy) {
  EXPECT_EQ(view.num_sources(), copy.num_sources());
  EXPECT_EQ(view.num_objects(), copy.num_objects());
  EXPECT_EQ(view.num_attributes(), copy.num_attributes());
  ASSERT_EQ(view.num_claims(), copy.num_claims());
  EXPECT_EQ(view.DataItems(), copy.DataItems());
  EXPECT_EQ(view.ActiveAttributes(), copy.ActiveAttributes());
  EXPECT_EQ(view.ActiveObjects(), copy.ActiveObjects());
  // Claims come back in the same relative order under both id spaces.
  const auto& vids = view.claim_ids();
  const auto& cids = copy.claim_ids();
  ASSERT_EQ(vids.size(), cids.size());
  for (size_t i = 0; i < vids.size(); ++i) {
    const Claim& v = view.claim(static_cast<size_t>(vids[i]));
    const Claim& c = copy.claim(static_cast<size_t>(cids[i]));
    EXPECT_EQ(v.source, c.source);
    EXPECT_EQ(v.object, c.object);
    EXPECT_EQ(v.attribute, c.attribute);
    EXPECT_EQ(v.value, c.value);
  }
  // The item indexes agree claim-by-claim.
  for (uint64_t key : copy.DataItems()) {
    ObjectId o = ObjectFromKey(key);
    AttributeId a = AttributeFromKey(key);
    const auto& vlist = view.ClaimsOn(o, a);
    const auto& clist = copy.ClaimsOn(o, a);
    ASSERT_EQ(vlist.size(), clist.size());
    for (size_t i = 0; i < vlist.size(); ++i) {
      EXPECT_EQ(view.claim(static_cast<size_t>(vlist[i])).value,
                copy.claim(static_cast<size_t>(clist[i])).value);
    }
  }
}

TEST(DatasetViewTest, AttributeViewMatchesCopy) {
  Dataset d = SmallDataset();
  std::vector<AttributeId> subset{0, 2};
  DatasetView view(d, subset);
  ExpectViewMatchesCopy(view, d.RestrictToAttributes(subset));
}

TEST(DatasetViewTest, ObjectViewMatchesCopy) {
  Dataset d = SmallDataset();
  std::vector<ObjectId> subset{1};
  DatasetView view(d, DatasetView::ObjectAxis{}, subset);
  ExpectViewMatchesCopy(view, d.RestrictToObjects(subset));
}

TEST(DatasetViewTest, EmptySubsetHasNoClaims) {
  Dataset d = SmallDataset();
  DatasetView view(d, std::vector<AttributeId>{});
  EXPECT_EQ(view.num_claims(), 0u);
  EXPECT_TRUE(view.DataItems().empty());
  EXPECT_TRUE(view.ClaimsOn(0, 0).empty());
  EXPECT_TRUE(view.ActiveAttributes().empty());
}

TEST(DatasetViewTest, ViewOfViewComposes) {
  Dataset d = SmallDataset();
  DatasetView outer(d, std::vector<AttributeId>{0, 1});
  DatasetView inner(outer, std::vector<AttributeId>{1});
  ExpectViewMatchesCopy(inner, d.RestrictToAttributes({1}));
  // Claim ids are storage indices at every depth.
  EXPECT_EQ(&inner.storage(), &d);
  for (int32_t id : inner.claim_ids()) {
    EXPECT_EQ(inner.claim(static_cast<size_t>(id)).attribute, 1);
    EXPECT_EQ(inner.claim(static_cast<size_t>(id)),
              d.claim(static_cast<size_t>(id)));
  }
  // Mixed-axis nesting: objects within an attribute restriction.
  DatasetView nested(outer, DatasetView::ObjectAxis{}, {0});
  for (int32_t id : nested.claim_ids()) {
    const Claim& c = nested.claim(static_cast<size_t>(id));
    EXPECT_EQ(c.object, 0);
    EXPECT_NE(c.attribute, 2);
  }
}

TEST(DatasetViewTest, ClaimsOnSharesStorageListZeroCopy) {
  Dataset d = SmallDataset();
  DatasetView view(d, std::vector<AttributeId>{0});
  // Every claim on a data item shares the item's attribute, so a kept
  // item's span is the storage's span verbatim — same address, no copy.
  EXPECT_EQ(view.ClaimsOn(0, 0).data(), d.ClaimsOn(0, 0).data());
  EXPECT_EQ(view.ClaimsOn(0, 0).size(), d.ClaimsOn(0, 0).size());
  EXPECT_TRUE(view.ClaimsOn(0, 1).empty());
}

TEST(DatasetViewTest, MaterializeEqualsCopyPath) {
  Dataset d = SmallDataset();
  std::vector<AttributeId> subset{1, 2};
  DatasetView view(d, subset);
  Dataset materialized = view.Materialize();
  Dataset copy = d.RestrictToAttributes(subset);
  ASSERT_EQ(materialized.num_claims(), copy.num_claims());
  for (size_t i = 0; i < materialized.num_claims(); ++i) {
    EXPECT_EQ(materialized.claim(i).source, copy.claim(i).source);
    EXPECT_EQ(materialized.claim(i).object, copy.claim(i).object);
    EXPECT_EQ(materialized.claim(i).attribute, copy.claim(i).attribute);
    EXPECT_EQ(materialized.claim(i).value, copy.claim(i).value);
  }
  EXPECT_EQ(materialized.source_name(0), copy.source_name(0));
  EXPECT_EQ(materialized.attribute_name(2), copy.attribute_name(2));
}

TEST(RestrictionCacheTest, SameSubsetSharesOneView) {
  Dataset d = SmallDataset();
  RestrictionCache cache(&d);
  const auto a = cache.Attributes({0, 2});
  const auto b = cache.Attributes({0, 2});
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.views_built(), 1u);
  const auto c = cache.Attributes({0});
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.views_built(), 2u);
  const RestrictionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.live, 2u);
}

TEST(RestrictionCacheTest, AxesDoNotCollide) {
  Dataset d = SmallDataset();
  RestrictionCache cache(&d);
  const auto attrs = cache.Attributes({0, 1});
  const auto objects = cache.Objects({0, 1});
  EXPECT_NE(attrs.get(), objects.get());
  EXPECT_EQ(cache.views_built(), 2u);
  // Objects {0,1} is the full object set, attributes {0,1} is a strict
  // subset — same ids, different axis, different contents.
  EXPECT_EQ(objects->num_claims(), d.num_claims());
  EXPECT_LT(attrs->num_claims(), d.num_claims());
}

TEST(RestrictionCacheTest, CapacityOneEvictsLeastRecentlyUsed) {
  Dataset d = SmallDataset();
  RestrictionCache cache(&d, /*capacity=*/1);
  const auto a1 = cache.Attributes({0});
  EXPECT_EQ(cache.views_built(), 1u);
  // Repeat request: served from the single slot, no rebuild.
  const auto a2 = cache.Attributes({0});
  EXPECT_EQ(a1.get(), a2.get());
  EXPECT_EQ(cache.views_built(), 1u);
  // A different subset evicts {0}; requesting {0} again must rebuild.
  const auto b = cache.Attributes({1});
  EXPECT_EQ(cache.views_built(), 2u);
  const auto a3 = cache.Attributes({0});
  EXPECT_EQ(cache.views_built(), 3u);
  EXPECT_NE(a3.get(), a1.get());
  // The evicted view handle stays fully usable as long as we hold it.
  EXPECT_EQ(a1->num_claims(), a3->num_claims());
  EXPECT_EQ(b->claim_ids().size(), b->num_claims());
  const RestrictionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.live, 1u);
}

TEST(RestrictionCacheTest, CapacityZeroDisablesCaching) {
  Dataset d = SmallDataset();
  RestrictionCache cache(&d, /*capacity=*/0);
  const auto a = cache.Attributes({0, 2});
  const auto b = cache.Attributes({0, 2});
  // Every request builds a fresh view; both handles stay independently
  // valid and identical in content.
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.views_built(), 2u);
  EXPECT_EQ(a->num_claims(), b->num_claims());
  const RestrictionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.live, 0u);
}

TEST(RestrictionCacheTest, LruPrefersEvictingTheColdestEntry) {
  Dataset d = SmallDataset();
  RestrictionCache cache(&d, /*capacity=*/2);
  const auto a = cache.Attributes({0});
  const auto b = cache.Attributes({1});
  // Touch {0} so {1} is the least recently used when {2} is inserted.
  cache.Attributes({0});
  cache.Attributes({2});
  EXPECT_EQ(cache.stats().evictions, 1u);
  // {0} must still be resident (no rebuild), {1} must rebuild.
  const size_t built_before = cache.views_built();
  cache.Attributes({0});
  EXPECT_EQ(cache.views_built(), built_before);
  cache.Attributes({1});
  EXPECT_EQ(cache.views_built(), built_before + 1);
}

TEST(RestrictionCacheTest, ConcurrentRequestsBuildEachViewOnce) {
  SyntheticConfig config;
  config.num_objects = 20;
  config.num_sources = 5;
  config.planted_groups = {{0, 1}, {2, 3}, {4}};
  config.reliability_levels = {0.9, 0.4};
  config.seed = 7;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  const Dataset& d = data->dataset;

  const std::vector<std::vector<AttributeId>> subsets = {
      {0}, {1}, {0, 1}, {2, 3}, {0, 1, 2, 3, 4}, {4}};
  RestrictionCache cache(&d);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < 50; ++round) {
        const auto& subset = subsets[(t + round) % subsets.size()];
        const std::shared_ptr<const DatasetView> view_ptr =
            cache.Attributes(subset);
        const DatasetView& view = *view_ptr;
        size_t expected = 0;
        for (int32_t id : d.claim_ids()) {
          const Claim& c = d.claim(static_cast<size_t>(id));
          for (AttributeId a : subset) {
            if (c.attribute == a) ++expected;
          }
        }
        if (view.num_claims() != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.views_built(), subsets.size());
}

// Regression for the Tdac::RunPass double-restriction bug: the merged
// source trust must match a by-hand claim-weighted merge over the report's
// groups, computed through the independent copying path.
TEST(TdacTrustMergeTest, MergedTrustMatchesManualCopyPathMerge) {
  SyntheticConfig config;
  config.num_objects = 30;
  config.num_sources = 6;
  config.planted_groups = {{0, 1}, {2, 3}, {4}};
  config.reliability_levels = {0.9, 0.3};
  config.seed = 11;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  const Dataset& d = data->dataset;

  Accu base;
  TdacOptions opts;
  opts.base = &base;
  Tdac tdac(opts);
  auto report = tdac.DiscoverWithReport(d);
  ASSERT_TRUE(report.ok());

  const size_t num_sources = static_cast<size_t>(d.num_sources());
  std::vector<double> trust_weighted(num_sources, 0.0);
  std::vector<double> trust_claims(num_sources, 0.0);
  for (const auto& group : report->partition.groups()) {
    Dataset restricted = d.RestrictToAttributes(group);
    if (restricted.num_claims() == 0) continue;
    auto partial = base.Discover(restricted);
    ASSERT_TRUE(partial.ok());
    std::vector<double> counts(num_sources, 0.0);
    for (size_t i = 0; i < restricted.num_claims(); ++i) {
      counts[static_cast<size_t>(restricted.claim(i).source)] += 1.0;
    }
    for (size_t s = 0; s < num_sources; ++s) {
      trust_weighted[s] += partial->source_trust[s] * counts[s];
      trust_claims[s] += counts[s];
    }
  }
  std::vector<double> expected(num_sources, 0.0);
  for (size_t s = 0; s < num_sources; ++s) {
    if (trust_claims[s] > 0) expected[s] = trust_weighted[s] / trust_claims[s];
  }
  EXPECT_EQ(report->result.source_trust, expected);
}

}  // namespace
}  // namespace tdac
