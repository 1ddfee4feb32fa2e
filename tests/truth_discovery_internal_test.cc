#include "td/truth_discovery.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "data/dataset_builder.h"
#include "gen/scenario.h"
#include "gen/synthetic.h"
#include "td/registry.h"
#include "test_util.h"

// The global operator new, replaced to count the allocations made while an
// AllocationCounter is alive (single-threaded code under test only).
namespace {
std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not see free() meet a new-expression.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tdac {
namespace {

class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocations = 0;
    g_counting = true;
  }
  ~AllocationCounter() { g_counting = false; }
  size_t count() const { return g_allocations.load(); }
};

using td_internal::ConflictStore;
using td_internal::ElectSlot;
using td_internal::GroupClaimsByItem;
using td_internal::MeanAbsDelta;
using td_internal::Step;
using testutil::BuildDataset;

// The values of `item`'s slots, in slot order.
std::vector<Value> ItemValues(const ConflictStore& store, size_t item) {
  std::vector<Value> values;
  for (size_t v = store.first_slot(item); v < store.end_slot(item); ++v) {
    values.push_back(store.ValueOf(v));
  }
  return values;
}

std::vector<SourceId> Supporters(const ConflictStore& store, size_t slot) {
  const auto span = store.SupportersOf(slot);
  return {span.begin(), span.end()};
}

TEST(GroupClaimsByItemTest, GroupsValuesAndSupporters) {
  Dataset d = BuildDataset({
      {"s1", "o", "a", 5},
      {"s2", "o", "a", 5},
      {"s3", "o", "a", 9},
      {"s1", "o", "b", 1},
  });
  const ConflictStore store = GroupClaimsByItem(d);
  ASSERT_EQ(store.num_items(), 2u);
  // Item (o, a): two distinct values, sorted ascending (5 < 9).
  EXPECT_EQ(ItemValues(store, 0),
            (std::vector<Value>{Value(int64_t{5}), Value(int64_t{9})}));
  EXPECT_EQ(Supporters(store, 0), (std::vector<SourceId>{0, 1}));
  EXPECT_EQ(Supporters(store, 1), (std::vector<SourceId>{2}));
}

TEST(GroupClaimsByItemTest, FlatArraysAreConsistent) {
  Dataset d = BuildDataset({
      {"s1", "o", "a", 5},
      {"s2", "o", "a", 5},
      {"s3", "o", "a", 9},
      {"s1", "o", "b", 1},
  });
  const ConflictStore store = GroupClaimsByItem(d);
  EXPECT_EQ(store.keys, d.DataItems());
  EXPECT_EQ(store.item_offsets, (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(store.slot_offsets, (std::vector<uint32_t>{0, 2, 3, 4}));
  EXPECT_EQ(store.supporters, (std::vector<SourceId>{0, 1, 2, 0}));
  EXPECT_EQ(store.claim_counts, (std::vector<double>{2.0, 1.0, 1.0}));
  ASSERT_EQ(store.num_slots(), 3u);
  for (size_t v = 0; v < store.num_slots(); ++v) {
    EXPECT_EQ(store.ValueOf(v), d.value_dict().ValueAt(store.slot_ids[v]));
  }
}

TEST(GroupClaimsByItemTest, ValuesSortedForDeterministicTieBreaks) {
  Dataset d = BuildDataset({
      {"s1", "o", "a", 30},
      {"s2", "o", "a", 10},
      {"s3", "o", "a", 20},
  });
  const ConflictStore store = GroupClaimsByItem(d);
  ASSERT_EQ(store.num_items(), 1u);
  EXPECT_EQ(ItemValues(store, 0),
            (std::vector<Value>{Value(int64_t{10}), Value(int64_t{20}),
                                Value(int64_t{30})}));
}

TEST(GroupClaimsByItemTest, SupportersSortedBySourceId) {
  Dataset d = BuildDataset({
      {"z", "o", "a", 1},  // interned first -> id 0
      {"a", "o", "a", 1},  // id 1
      {"m", "o", "a", 1},  // id 2
  });
  const ConflictStore store = GroupClaimsByItem(d);
  ASSERT_EQ(store.num_items(), 1u);
  EXPECT_EQ(Supporters(store, 0), (std::vector<SourceId>{0, 1, 2}));
}

TEST(GroupClaimsByItemTest, ItemsFollowDataItemOrder) {
  Dataset d = BuildDataset({
      {"s", "o2", "a", 1},
      {"s", "o1", "a", 2},
      {"s", "o1", "b", 3},
  });
  const ConflictStore store = GroupClaimsByItem(d);
  ASSERT_EQ(store.num_items(), 3u);
  for (size_t i = 1; i < store.num_items(); ++i) {
    EXPECT_LT(store.keys[i - 1], store.keys[i]);
  }
}

// A seeded store of `objects` x 3 attributes over sources s1..s7 that
// claim each item with probability 0.6, from a domain of three values, so
// items have one to three slots. One more object is claimed by s1 alone
// (a one-claim item per attribute), and source "idle" claims nothing.
Dataset SeededData(uint64_t seed, int objects) {
  Rng rng(seed);
  DatasetBuilder builder;
  builder.AddSource("idle");
  for (int o = 0; o < objects; ++o) {
    for (int a = 0; a < 3; ++a) {
      for (int s = 1; s <= 7; ++s) {
        if (!rng.NextBernoulli(0.6)) continue;
        EXPECT_TRUE(builder
                        .AddClaim("s" + std::to_string(s),
                                  "o" + std::to_string(o),
                                  "a" + std::to_string(a),
                                  Value(rng.NextInt(0, 2)))
                        .ok());
      }
    }
  }
  for (int a = 0; a < 3; ++a) {
    EXPECT_TRUE(
        builder.AddClaim("s1", "solo", "a" + std::to_string(a), Value(1.5))
            .ok());
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status();
  return built.MoveValue();
}

// The slot-major scatter SourceSums replaced: from 0.0, per_slot[v] added
// to each supporter's sum for every slot v, front to back.
std::vector<double> ScatterSums(const ConflictStore& store,
                                const std::vector<double>& per_slot) {
  std::vector<double> per_source(store.claim_counts.size(), 0.0);
  for (size_t v = 0; v < store.num_slots(); ++v) {
    for (SourceId s : store.SupportersOf(v)) {
      per_source[static_cast<size_t>(s)] += per_slot[v];
    }
  }
  return per_source;
}

// Per-source sums over the source-major index add each source's slots in
// ascending order, the order the scatter adds them in, so they match it
// bit for bit. Slot values span nine orders of magnitude, where any other
// order rounds differently. Stores grouped at width 4 hold several item
// blocks; their index is filled block by block.
TEST(SourceSumsTest, SourceMajorSumsMatchTheSlotMajorScatterBitForBit) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Dataset d = SeededData(seed, seed % 2 == 0 ? 6000 : 40);
    for (int width : {1, 4}) {
      const RunWidthScope scope(width);
      const ConflictStore store = GroupClaimsByItem(d);
      const std::string at =
          "seed " + std::to_string(seed) + " width " + std::to_string(width);
      ASSERT_EQ(store.claim_counts[0], 0.0) << at;  // "idle"
      Rng rng(seed * 31);
      std::vector<double> per_slot(store.num_slots());
      for (double& x : per_slot) {
        x = rng.NextDouble() * std::pow(10.0, rng.NextInt(-4, 4));
      }
      std::vector<double> sums(store.claim_counts.size(), -1.0);
      td_internal::SourceSums(store, per_slot, sums);
      const std::vector<double> expected = ScatterSums(store, per_slot);
      for (size_t s = 0; s < sums.size(); ++s) {
        EXPECT_EQ(sums[s], expected[s]) << at << " source " << s;
      }
      for (size_t s = 0; s < sums.size(); ++s) {
        EXPECT_EQ(store.SlotsOf(s).size(),
                  static_cast<size_t>(store.claim_counts[s]))
            << at << " source " << s;
      }
    }
  }
}

// DS2 at 2,000 objects: 120k claims, several kItemBlockClaims grains.
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

// The item blocks partition the items into nonempty runs, in order, of
// about equal claim counts; the store is the serial one in every other
// array, whatever the width it was grouped at.
TEST(ItemBlocksTest, BlocksCoverEveryItemOnceInOrder) {
  const Dataset& d = AboveGrainData();
  ASSERT_GE(d.num_claims(), 3 * td_internal::kItemBlockClaims);
  ConflictStore serial;
  {
    const RunWidthScope scope(1);
    serial = GroupClaimsByItem(d);
  }
  EXPECT_EQ(serial.item_blocks,
            (std::vector<uint32_t>{0, static_cast<uint32_t>(
                                          serial.num_items())}));
  size_t widest_item = 0;
  for (size_t it = 0; it < serial.num_items(); ++it) {
    widest_item = std::max<size_t>(
        widest_item, serial.slot_offsets[serial.end_slot(it)] -
                         serial.slot_offsets[serial.first_slot(it)]);
  }
  for (int width : {2, 4}) {
    const RunWidthScope scope(width);
    const ConflictStore store = GroupClaimsByItem(d);
    const std::string at = "width " + std::to_string(width);
    const std::vector<uint32_t>& blocks = store.item_blocks;
    ASSERT_EQ(store.num_blocks(), d.num_claims() / td_internal::kItemBlockClaims)
        << at;
    EXPECT_EQ(blocks.front(), 0u) << at;
    EXPECT_EQ(blocks.back(), store.num_items()) << at;
    const double share = static_cast<double>(d.num_claims()) /
                         static_cast<double>(store.num_blocks());
    for (size_t b = 0; b < store.num_blocks(); ++b) {
      EXPECT_LT(blocks[b], blocks[b + 1]) << at << " block " << b;
      const double claims =
          store.slot_offsets[store.first_slot(blocks[b + 1])] -
          store.slot_offsets[store.first_slot(blocks[b])];
      EXPECT_LE(std::fabs(claims - share),
                static_cast<double>(widest_item) + 1.0)
          << at << " block " << b;
    }
    EXPECT_EQ(store.keys, serial.keys) << at;
    EXPECT_EQ(store.item_offsets, serial.item_offsets) << at;
    EXPECT_EQ(store.slot_ids, serial.slot_ids) << at;
    EXPECT_EQ(store.slot_offsets, serial.slot_offsets) << at;
    EXPECT_EQ(store.supporters, serial.supporters) << at;
    EXPECT_EQ(store.claim_counts, serial.claim_counts) << at;
    EXPECT_EQ(store.source_offsets, serial.source_offsets) << at;
    EXPECT_EQ(store.source_slots, serial.source_slots) << at;
  }
}

// Regression: grouping used to build three vectors per item plus one per
// value (41,134 allocations on this cell), and the algorithms kept
// per-item state and scratch (Accu's run made 126,915 allocations,
// MajorityVote's 56,155). On a 5,000-item cell, grouping now allocates a
// fixed handful of flat arrays, and a base run adds nothing per item
// beyond the result's two maps (2 per item).
TEST(ConflictStoreAllocationTest, GroupingAndBaseRunsAllocateNothingPerItem) {
  ScenarioSpec spec;
  spec.num_objects = 1000;
  spec.num_attributes = 5;
  spec.num_sources = 12;
  spec.dcr = 0.5;
  auto generated = GenerateScenario(spec);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const Dataset& d = generated->dataset;
  const size_t items = d.DataItems().size();
  ASSERT_EQ(items, 5000u);
  ASSERT_EQ(d.num_claims(), 29910u);

  size_t grouping = 0;
  {
    AllocationCounter counter;
    const ConflictStore store = GroupClaimsByItem(d);
    grouping = counter.count();
  }
  EXPECT_LT(grouping, 100u);

  for (const std::string& name : RegisteredAlgorithms()) {
    auto algorithm = MakeAlgorithm(name);
    ASSERT_TRUE(algorithm.ok());
    size_t run = 0;
    bool ok = false;
    {
      AllocationCounter counter;
      const auto result = (*algorithm)->Discover(d);
      run = counter.count();
      ok = result.ok();
    }
    ASSERT_TRUE(ok) << name;
    EXPECT_LT(run, 2 * items + 500) << name;
  }
}

TEST(ElectSlotTest, FirstMaximumWinsOnTies) {
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 2},
      {"s3", "o", "a", 3},
      {"s4", "o", "a", 4},
      {"s1", "o", "b", 7},
  });
  const ConflictStore store = GroupClaimsByItem(d);
  ASSERT_EQ(store.num_slots(), 5u);
  EXPECT_EQ(ElectSlot(store, 0, {1.0, 3.0, 3.0, 2.0, 9.0}), 1u);
  EXPECT_EQ(ElectSlot(store, 0, {-2.0, -1.0, -3.0, -1.0, 0.0}), 1u);
  EXPECT_EQ(ElectSlot(store, 1, {1.0, 3.0, 3.0, 2.0, -5.0}), 4u);
}

TEST(ScoreShareTest, ShareOfTheItemTotal) {
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 2},
      {"s1", "o", "b", 7},
  });
  const ConflictStore store = GroupClaimsByItem(d);
  EXPECT_DOUBLE_EQ(td_internal::ScoreShare(store, 0, 1, {1.0, 3.0, 9.0}),
                   0.75);
  EXPECT_DOUBLE_EQ(td_internal::ScoreShare(store, 0, 0, {0.0, 0.0, 9.0}),
                   0.0);
}

// The pair table keeps each caller's argument order: the asymmetric table
// calls entry(w, v) for every ordered pair, the symmetric one entry(w, v)
// for w < v only, mirrored.
TEST(PairTableTest, ArgumentOrderAndMirroring) {
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 2},
      {"s3", "o", "a", 4},
      {"s1", "o", "b", 7},
  });
  const ConflictStore store = GroupClaimsByItem(d);
  const auto entry = [](const Value& w, const Value& v) {
    return static_cast<double>(10 * w.AsInt() + v.AsInt());
  };
  const auto full = td_internal::BuildPairTable(store, false, entry);
  const auto mirrored = td_internal::BuildPairTable(store, true, entry);
  ASSERT_EQ(full.entries.size(), 10u);  // 3 x 3 + 1 x 1
  const double* block = full.Block(0);
  EXPECT_EQ((std::vector<double>(block, block + 9)),
            (std::vector<double>{0, 12, 14, 21, 0, 24, 41, 42, 0}));
  block = mirrored.Block(0);
  EXPECT_EQ((std::vector<double>(block, block + 9)),
            (std::vector<double>{0, 12, 14, 12, 0, 24, 14, 24, 0}));
  EXPECT_EQ(full.Block(1)[0], 0.0);
}

// The shared outer loop's contract: iteration 0 always runs, the guard is
// checked from iteration 1 on, a non-finite step stops the run, and a
// settled step counts as convergence only after iteration 0.
TEST(IterateTest, SettledCountsFromTheSecondIteration) {
  TruthDiscoveryOptions options;
  options.max_iterations = 10;
  TruthDiscoveryResult result;
  int steps = 0;
  td_internal::Iterate(options, RunGuard::None(), result, [&] {
    ++steps;
    return Step::kSettled;
  });
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(result.iterations, 2);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.stop_reason, StopReason::kConverged);
}

TEST(IterateTest, RunsOutOfIterations) {
  TruthDiscoveryOptions options;
  options.max_iterations = 0;  // clamped to one iteration
  TruthDiscoveryResult result;
  td_internal::Iterate(options, RunGuard::None(), result,
                       [] { return Step::kContinue; });
  EXPECT_EQ(result.iterations, 1);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.stop_reason, StopReason::kMaxIterations);
}

TEST(IterateTest, NonFiniteStepStopsTheRun) {
  TruthDiscoveryOptions options;
  TruthDiscoveryResult result;
  int steps = 0;
  td_internal::Iterate(options, RunGuard::None(), result, [&] {
    return ++steps == 3 ? Step::kNonFinite : Step::kContinue;
  });
  EXPECT_EQ(result.iterations, 3);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.stop_reason, StopReason::kNonFinite);
}

TEST(IterateTest, TrippedGuardStillRunsIterationZero) {
  CancellationToken token;
  token.Cancel();
  RunGuard guard(&token);
  TruthDiscoveryOptions options;
  TruthDiscoveryResult result;
  int steps = 0;
  td_internal::Iterate(options, guard, result, [&] {
    ++steps;
    return Step::kContinue;
  });
  EXPECT_EQ(steps, 1);
  EXPECT_EQ(result.iterations, 1);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
}

TEST(MeanAbsDeltaTest, Basics) {
  EXPECT_DOUBLE_EQ(MeanAbsDelta({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(MeanAbsDelta({1.0, 2.0}, {1.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(MeanAbsDelta({0.0, 0.0}, {1.0, -1.0}), 1.0);
}

TEST(MeanAbsDeltaDeathTest, SizeMismatchAborts) {
  EXPECT_DEATH((void)MeanAbsDelta({1.0}, {1.0, 2.0}), "size mismatch");
}

}  // namespace
}  // namespace tdac
