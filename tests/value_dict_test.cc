// Unit tests for the dictionary/arena layer behind the columnar claim
// store (data/value_dict.h): interning stability, id round-trips, string
// edge cases (empty, duplicate, embedded NUL), rank order, NaN/-0.0
// semantics, per-kind rank sorts over a mixed corpus, arena growth without view invalidation (run under ASan in
// CI's sanitizer matrix), and the Dataset freeze contract — mutation after
// Build must abort.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/dataset.h"
#include "data/dataset_builder.h"
#include "data/value_dict.h"

namespace tdac {

/// Test-only backdoor into Dataset's private freeze guards (declared a
/// friend in data/dataset.h) so the death tests below can poke a *built*
/// dataset the way a buggy builder would.
class DatasetTestPeer {
 public:
  static void AppendClaim(Dataset* d, Claim claim) {
    d->AppendClaim(std::move(claim));
  }
  static void CheckMutable(const Dataset* d) { d->CheckMutable("test"); }
  static void BuildIndexes(Dataset* d) { d->BuildIndexes(); }
};

namespace {

TEST(StringArenaTest, AddReturnsStableViewsAcrossGrowth) {
  StringArena arena;
  // Force many block allocations with strings big enough to matter, and
  // verify every previously returned view still reads back its bytes —
  // under ASan this is the no-dangling-view proof: a reallocating arena
  // would trip heap-use-after-free right here.
  std::vector<std::pair<std::string_view, std::string>> stored;
  for (int i = 0; i < 5000; ++i) {
    std::string s = "payload-" + std::to_string(i) +
                    std::string(static_cast<size_t>(i % 257), 'x');
    std::string_view view = arena.Add(s);
    stored.emplace_back(view, s);
  }
  EXPECT_GT(arena.num_blocks(), 1u);
  for (const auto& [view, expected] : stored) {
    EXPECT_EQ(view, std::string_view(expected));
  }
}

TEST(StringArenaTest, OversizedStringGetsItsOwnBlock) {
  StringArena arena;
  const std::string big(1 << 20, 'b');
  std::string_view view = arena.Add(big);
  EXPECT_EQ(view.size(), big.size());
  EXPECT_EQ(view, std::string_view(big));
  EXPECT_EQ(arena.size_bytes(), big.size());
}

TEST(StringArenaTest, EmptyAndEmbeddedNulStringsRoundTrip) {
  StringArena arena;
  std::string_view empty = arena.Add("");
  EXPECT_EQ(empty.size(), 0u);
  const std::string with_nul = std::string("ab\0cd", 5);
  std::string_view nul_view = arena.Add(with_nul);
  EXPECT_EQ(nul_view.size(), 5u);
  EXPECT_EQ(nul_view, std::string_view(with_nul));
}

TEST(StringArenaTest, CopySharesOldBlocksButForksNewWrites) {
  StringArena a;
  std::string_view before = a.Add("before-copy");
  StringArena b = a;
  // Views taken before the copy stay valid through both instances.
  EXPECT_EQ(before, "before-copy");
  // Writes after the copy go to private blocks: growing one arena must
  // not corrupt bytes the other already handed out.
  std::string_view from_a = a.Add("written-to-a");
  std::string_view from_b = b.Add("written-to-b");
  EXPECT_EQ(before, "before-copy");
  EXPECT_EQ(from_a, "written-to-a");
  EXPECT_EQ(from_b, "written-to-b");
  EXPECT_NE(from_a.data(), from_b.data());
}

TEST(ValueDictTest, InterningIsStableAndIdsRoundTrip) {
  ValueDict dict;
  const std::vector<Value> values = {
      Value("alpha"), Value(int64_t{7}), Value(2.5),
      Value(""),      Value(int64_t{-7}), Value("alpha ")};
  std::vector<ValueId> ids;
  for (const Value& v : values) ids.push_back(dict.Intern(v));
  // Re-interning returns the same id; round-trip materializes an equal
  // Value of the same kind.
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dict.Intern(values[i]), ids[i]);
    EXPECT_EQ(dict.Find(values[i]), ids[i]);
    EXPECT_EQ(dict.ValueAt(ids[i]), values[i]);
    EXPECT_EQ(dict.kind(ids[i]), values[i].kind());
  }
  EXPECT_EQ(dict.size(), static_cast<int32_t>(values.size()));
}

TEST(ValueDictTest, EqualityFollowsValueSemanticsAcrossKinds) {
  ValueDict dict;
  // An int 2 and a double 2.0 and a string "2" are three distinct values.
  const ValueId as_int = dict.Intern(Value(int64_t{2}));
  const ValueId as_double = dict.Intern(Value(2.0));
  const ValueId as_string = dict.Intern(Value("2"));
  EXPECT_NE(as_int, as_double);
  EXPECT_NE(as_int, as_string);
  EXPECT_NE(as_double, as_string);
}

TEST(ValueDictTest, NegativeZeroSharesTheIdOfPositiveZero) {
  ValueDict dict;
  const ValueId pos = dict.Intern(Value(0.0));
  const ValueId neg = dict.Intern(Value(-0.0));
  EXPECT_EQ(pos, neg) << "-0.0 == +0.0 under Value::operator==";
  EXPECT_EQ(dict.Find(Value(-0.0)), pos);
}

TEST(ValueDictTest, NanNeverDedupsAndNeverFinds) {
  ValueDict dict;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const ValueId a = dict.Intern(Value(nan));
  const ValueId b = dict.Intern(Value(nan));
  EXPECT_NE(a, b) << "NaN != NaN, so each occurrence is a fresh value";
  EXPECT_EQ(dict.Find(Value(nan)), kInvalidId)
      << "no interned value compares == to NaN";
}

TEST(ValueDictTest, EmbeddedNulAndEmptyStringsAreDistinctValues) {
  ValueDict dict;
  const ValueId empty = dict.Intern(Value(""));
  const ValueId nul = dict.Intern(Value(std::string("\0", 1)));
  const ValueId nul2 = dict.Intern(Value(std::string("\0\0", 2)));
  EXPECT_NE(empty, nul);
  EXPECT_NE(nul, nul2);
  EXPECT_EQ(dict.Intern(Value(std::string("\0", 1))), nul);
  EXPECT_EQ(dict.StringAt(nul).size(), 1u);
}

TEST(ValueDictTest, RanksFollowTheValueTotalOrder) {
  ValueDict dict;
  // Interning order deliberately scrambled vs. the value order: strings
  // sort before ints before doubles (kind first), payloads ascending.
  const ValueId d_hi = dict.Intern(Value(9.5));
  const ValueId s_b = dict.Intern(Value("b"));
  const ValueId i_lo = dict.Intern(Value(int64_t{-3}));
  const ValueId d_lo = dict.Intern(Value(0.25));
  const ValueId s_a = dict.Intern(Value("a"));
  const ValueId i_hi = dict.Intern(Value(int64_t{12}));
  dict.Freeze();
  EXPECT_TRUE(dict.frozen());
  const std::vector<ValueId> expected_order = {s_a, s_b, i_lo,
                                               i_hi, d_lo, d_hi};
  for (size_t r = 0; r < expected_order.size(); ++r) {
    EXPECT_EQ(dict.id_at_rank(static_cast<int32_t>(r)), expected_order[r]);
    EXPECT_EQ(dict.rank(expected_order[r]), static_cast<int32_t>(r));
  }
  // rank is exactly the sort key the grouping kernel uses: ascending rank
  // must mean ascending Value.
  for (size_t r = 1; r < expected_order.size(); ++r) {
    EXPECT_TRUE(dict.ValueAt(dict.id_at_rank(static_cast<int32_t>(r - 1))) <
                dict.ValueAt(dict.id_at_rank(static_cast<int32_t>(r))));
  }

  // Freeze sorts each kind on its own. Over a seeded mixed-kind corpus
  // holding every edge of the order — several NaNs (each its own id), both
  // zeros (one id), both infinities, the int64 extremes, and the empty and
  // embedded-NUL strings — interned in shuffled order with repeats, the
  // ranks must be a sort by Value::operator< with the id as tie-break.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Value> corpus = {
      Value(nan),
      Value(-nan),
      Value(nan),
      Value(0.0),
      Value(-0.0),
      Value(inf),
      Value(-inf),
      Value(std::numeric_limits<double>::lowest()),
      Value(std::numeric_limits<double>::denorm_min()),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(int64_t{0}),
      Value(int64_t{-1}),
      Value(""),
      Value(std::string(1, '\0')),
      Value(std::string("a\0b", 3)),
      Value(std::string("a\0", 2)),
      Value("a"),
      Value("\xc3\xa9"),
  };
  Rng rng(20240611);
  for (int i = 0; i < 300; ++i) {
    switch (rng.NextBounded(3)) {
      case 0:
        corpus.emplace_back(rng.NextInt(-50, 50));
        break;
      case 1:
        corpus.emplace_back(static_cast<double>(rng.NextInt(-20, 20)) / 4.0);
        break;
      default: {
        std::string text;
        for (uint64_t n = rng.NextBounded(4); n > 0; --n) {
          text += "ab\0\xff"[rng.NextBounded(4)];
        }
        corpus.emplace_back(std::move(text));
      }
    }
  }
  rng.Shuffle(&corpus);
  ValueDict mixed;
  for (const Value& v : corpus) mixed.Intern(v);
  mixed.Freeze();
  std::vector<ValueId> by_value(static_cast<size_t>(mixed.size()));
  std::iota(by_value.begin(), by_value.end(), 0);
  std::stable_sort(by_value.begin(), by_value.end(),
                   [&mixed](ValueId a, ValueId b) {
                     return mixed.ValueAt(a) < mixed.ValueAt(b);
                   });
  for (size_t r = 0; r < by_value.size(); ++r) {
    EXPECT_EQ(mixed.id_at_rank(static_cast<int32_t>(r)), by_value[r]) << r;
    EXPECT_EQ(mixed.rank(by_value[r]), static_cast<int32_t>(r)) << r;
  }
}

TEST(ValueDictTest, ArenaGrowthKeepsInternedStringsFindable) {
  ValueDict dict;
  std::vector<std::pair<ValueId, std::string>> interned;
  for (int i = 0; i < 3000; ++i) {
    std::string s =
        "k" + std::to_string(i) + std::string(static_cast<size_t>(i % 97), 'y');
    interned.emplace_back(dict.Intern(Value(s)), s);
  }
  // The lookup map is keyed by arena views; if growth moved any block the
  // probes below would read freed memory (ASan) or miss (everywhere).
  for (const auto& [id, s] : interned) {
    EXPECT_EQ(dict.Find(Value(s)), id);
    EXPECT_EQ(dict.StringAt(id), std::string_view(s));
  }
}

// ---------------------------------------------------------------------------
// Dataset columns + freeze contract
// ---------------------------------------------------------------------------

Dataset SmallDataset() {
  DatasetBuilder b;
  b.AddSource("s0");
  b.AddSource("s1");
  b.AddObject("o0");
  b.AddObject("o1");
  b.AddAttribute("a0");
  EXPECT_TRUE(b.AddClaim(0, 0, 0, Value("x")).ok());
  EXPECT_TRUE(b.AddClaim(1, 0, 0, Value("y")).ok());
  EXPECT_TRUE(b.AddClaim(0, 1, 0, Value("x")).ok());
  return b.Build().MoveValue();
}

TEST(DatasetColumnsTest, ColumnsHoldTheClaimsAsAdded) {
  Dataset d = SmallDataset();
  ASSERT_TRUE(d.frozen());
  ASSERT_EQ(d.claim_sources().size(), d.num_claims());
  ASSERT_EQ(d.claim_value_ids().size(), d.num_claims());
  ASSERT_EQ(d.claim_items().size(), d.num_claims());
  ASSERT_EQ(d.claim_value_ranks().size(), d.num_claims());
  const std::vector<Claim> added = {{0, 0, 0, Value("x")},
                                    {1, 0, 0, Value("y")},
                                    {0, 1, 0, Value("x")}};
  ASSERT_EQ(d.num_claims(), added.size());
  for (size_t i = 0; i < d.num_claims(); ++i) {
    const Claim& c = added[i];
    EXPECT_EQ(d.claim(i), c);
    EXPECT_EQ(d.claim_sources()[i], c.source);
    EXPECT_EQ(d.claim_objects()[i], c.object);
    EXPECT_EQ(d.claim_attributes()[i], c.attribute);
    EXPECT_EQ(d.value_dict().ValueAt(d.claim_value_ids()[i]), c.value);
    EXPECT_EQ(d.claim_value_ranks()[i],
              d.value_dict().rank(d.claim_value_ids()[i]));
    EXPECT_EQ(d.DataItems()[static_cast<size_t>(d.claim_items()[i])],
              ObjectAttrKey(c.object, c.attribute));
  }
  // Claims 0 and 2 share the value "x": one dictionary id.
  EXPECT_EQ(d.claim_value_ids()[0], d.claim_value_ids()[2]);
  EXPECT_NE(d.claim_value_ids()[0], d.claim_value_ids()[1]);
}

TEST(DatasetColumnsTest, RestrictionRebuildsConsistentColumns) {
  Dataset d = SmallDataset();
  Dataset restricted = d.RestrictToObjects({0});
  ASSERT_TRUE(restricted.frozen());
  ASSERT_EQ(restricted.num_claims(), 2u);
  const std::vector<Claim> kept = {{0, 0, 0, Value("x")},
                                   {1, 0, 0, Value("y")}};
  for (size_t i = 0; i < restricted.num_claims(); ++i) {
    EXPECT_EQ(restricted.claim(i), kept[i]);
    EXPECT_EQ(restricted.claim_sources()[i], kept[i].source);
    EXPECT_EQ(restricted.value_dict().ValueAt(restricted.claim_value_ids()[i]),
              kept[i].value);
  }
}

TEST(DatasetColumnsTest, CopiedDatasetKeepsAValidDictionary) {
  Dataset d = SmallDataset();
  Dataset copy = d;
  // The copy's dictionary views must point at live (shared) arena bytes.
  for (size_t i = 0; i < copy.num_claims(); ++i) {
    EXPECT_EQ(copy.value_dict().ValueAt(copy.claim_value_ids()[i]),
              copy.claim(i).value);
  }
  EXPECT_EQ(copy.value_dict().Find(Value("x")), d.value_dict().Find(Value("x")));
}

using DatasetFreezeDeathTest = ::testing::Test;

TEST(DatasetFreezeDeathTest, AppendAfterBuildAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Dataset d = SmallDataset();
  ASSERT_TRUE(d.frozen());
  EXPECT_DEATH(
      DatasetTestPeer::AppendClaim(&d, Claim{1, 1, 0, Value("z")}),
      "frozen");
}

TEST(DatasetFreezeDeathTest, NameTableMutationAfterBuildAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Dataset d = SmallDataset();
  EXPECT_DEATH(DatasetTestPeer::CheckMutable(&d), "frozen");
}

TEST(DatasetFreezeDeathTest, ReindexingAFrozenStoreAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Dataset d = SmallDataset();
  EXPECT_DEATH(DatasetTestPeer::BuildIndexes(&d), "frozen");
}

TEST(DatasetFreezeDeathTest, BuilderIsReusableAfterBuild) {
  // The freeze applies to the *built* dataset; the builder itself resets
  // to a fresh, mutable store.
  DatasetBuilder b;
  b.AddSource("s");
  b.AddObject("o");
  b.AddAttribute("a");
  ASSERT_TRUE(b.AddClaim(0, 0, 0, Value(1)).ok());
  ASSERT_TRUE(b.Build().ok());
  b.AddSource("s2");
  b.AddObject("o2");
  b.AddAttribute("a2");
  ASSERT_TRUE(b.AddClaim(0, 0, 0, Value(2)).ok());
  auto second = b.Build();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->num_claims(), 1u);
}

}  // namespace
}  // namespace tdac
