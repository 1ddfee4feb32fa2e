#include "data/dataset.h"

#include <string>

#include <gtest/gtest.h>

#include "data/dataset_builder.h"

namespace tdac {
namespace {

/// Builds the running example of the paper's Table 1: 3 sources, 2 objects
/// (topics FB and CS), 3 attributes (Q1..Q3).
Dataset Table1Dataset() {
  DatasetBuilder b;
  auto add = [&](const char* src, const char* obj, const char* attr,
                 Value v) {
    ASSERT_TRUE(b.AddClaim(src, obj, attr, std::move(v)).ok());
  };
  add("Source1", "FB", "Q1", Value("Algeria"));
  add("Source1", "FB", "Q2", Value(int64_t{2000}));
  add("Source1", "FB", "Q3", Value(int64_t{12}));
  add("Source2", "FB", "Q1", Value("Senegal"));
  add("Source2", "FB", "Q2", Value(int64_t{2019}));
  add("Source2", "FB", "Q3", Value(int64_t{11}));
  add("Source3", "FB", "Q1", Value("Algeria"));
  add("Source3", "FB", "Q2", Value(int64_t{1994}));
  add("Source3", "FB", "Q3", Value(int64_t{12}));
  add("Source1", "CS", "Q1", Value("Linus Torvalds"));
  add("Source1", "CS", "Q2", Value(int64_t{1830}));
  add("Source1", "CS", "Q3", Value(int64_t{7}));
  add("Source2", "CS", "Q1", Value("Bill Gates"));
  add("Source2", "CS", "Q2", Value(int64_t{1991}));
  add("Source2", "CS", "Q3", Value(int64_t{8}));
  add("Source3", "CS", "Q1", Value("Steve Jobs"));
  add("Source3", "CS", "Q2", Value(int64_t{1991}));
  add("Source3", "CS", "Q3", Value(int64_t{10}));
  auto result = b.Build();
  EXPECT_TRUE(result.ok());
  return result.MoveValue();
}

TEST(DatasetBuilderTest, InternsNames) {
  DatasetBuilder b;
  SourceId s1 = b.AddSource("s");
  SourceId s2 = b.AddSource("s");
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(b.AddSource("t"), s1 + 1);
}

TEST(DatasetBuilderTest, FindReturnsInvalidForUnknown) {
  DatasetBuilder b;
  EXPECT_EQ(b.FindSource("nope"), kInvalidId);
  b.AddSource("yes");
  EXPECT_EQ(b.FindSource("yes"), 0);
}

TEST(DatasetBuilderTest, RejectsDuplicateClaim) {
  DatasetBuilder b;
  ASSERT_TRUE(b.AddClaim("s", "o", "a", Value(int64_t{1})).ok());
  ASSERT_TRUE(b.AddClaim("s", "o", "a", Value(int64_t{2})).ok());
  size_t repeated = 0;
  auto built = b.Build(&repeated);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(built.status().message(),
            "duplicate claim for (source=s, object=o, attribute=a)");
  EXPECT_EQ(repeated, 1u);
  // A refused build resets the builder too.
  EXPECT_EQ(b.num_claims(), 0u);
  EXPECT_EQ(b.FindSource("s"), kInvalidId);
}

TEST(DatasetBuilderTest, DuplicateCheckSurvivesGrowth) {
  // Every claim repeated once, the repeats in reverse item order: Build()
  // must name the first repeat in AddClaim order, not the first in item
  // order, and must find it among a thousand others.
  DatasetBuilder b;
  auto add = [&b](int s, int o, const char* a) {
    return b.AddClaim("s" + std::to_string(s), "o" + std::to_string(o), a,
                      Value(int64_t{o}));
  };
  for (int o = 0; o < 50; ++o) {
    for (int s = 0; s < 20; ++s) ASSERT_TRUE(add(s, o, "a").ok());
  }
  for (int o = 49; o >= 0; --o) {
    for (int s = 19; s >= 0; --s) ASSERT_TRUE(add(s, o, "a").ok());
  }
  ASSERT_TRUE(add(0, 0, "b").ok());
  EXPECT_EQ(b.num_claims(), 2001u);
  size_t repeated = 0;
  auto built = b.Build(&repeated);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(built.status().message(),
            "duplicate claim for (source=s19, object=o49, attribute=a)");
  EXPECT_EQ(repeated, 1000u);
}

TEST(DatasetBuilderTest, RejectsBadIds) {
  DatasetBuilder b;
  b.AddSource("s");
  b.AddObject("o");
  b.AddAttribute("a");
  EXPECT_EQ(b.AddClaim(SourceId{5}, 0, 0, Value()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(b.AddClaim(0, ObjectId{9}, 0, Value()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(b.AddClaim(0, 0, AttributeId{-1}, Value()).code(),
            StatusCode::kInvalidArgument);
}

TEST(DatasetBuilderTest, EmptyBuildFails) {
  DatasetBuilder b;
  auto r = b.Build();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetTest, CountsMatchTable1) {
  Dataset d = Table1Dataset();
  EXPECT_EQ(d.num_sources(), 3);
  EXPECT_EQ(d.num_objects(), 2);
  EXPECT_EQ(d.num_attributes(), 3);
  EXPECT_EQ(d.num_claims(), 18u);
  EXPECT_EQ(d.DataItems().size(), 6u);
}

TEST(DatasetTest, ClaimsOnReturnsConflictSet) {
  Dataset d = Table1Dataset();
  ObjectId fb = 0;
  AttributeId q1 = 0;
  const auto& on = d.ClaimsOn(fb, q1);
  EXPECT_EQ(on.size(), 3u);
  for (int32_t idx : on) {
    const Claim& c = d.claim(static_cast<size_t>(idx));
    EXPECT_EQ(c.object, fb);
    EXPECT_EQ(c.attribute, q1);
  }
}

TEST(DatasetTest, ClaimReadsTheStoredValue) {
  Dataset d = Table1Dataset();
  // Source1's claim on (FB, Q1).
  const Claim c = d.claim(static_cast<size_t>(d.ClaimsOn(0, 0)[0]));
  EXPECT_EQ(c.source, 0);
  EXPECT_EQ(c.value, Value("Algeria"));
}

TEST(DatasetTest, FullCoverageDcrIs100) {
  Dataset d = Table1Dataset();
  EXPECT_NEAR(d.DataCoverageRate(), 100.0, 1e-9);
}

TEST(DatasetTest, DcrDropsWithMissingClaims) {
  DatasetBuilder b;
  // 2 sources, 1 object, 2 attributes; source2 covers only one attribute.
  ASSERT_TRUE(b.AddClaim("s1", "o", "a1", Value(int64_t{1})).ok());
  ASSERT_TRUE(b.AddClaim("s1", "o", "a2", Value(int64_t{1})).ok());
  ASSERT_TRUE(b.AddClaim("s2", "o", "a1", Value(int64_t{1})).ok());
  Dataset d = b.Build().MoveValue();
  // |S_o| = 2, |A_o| = 2, claims = 3 -> DCR = 75%.
  EXPECT_NEAR(d.DataCoverageRate(), 75.0, 1e-9);
}

TEST(DatasetTest, RestrictToAttributesKeepsIdSpace) {
  Dataset d = Table1Dataset();
  Dataset r = d.RestrictToAttributes({0, 2});  // Q1 and Q3
  EXPECT_EQ(r.num_attributes(), 3);  // name table untouched
  EXPECT_EQ(r.num_claims(), 12u);
  EXPECT_EQ(r.ActiveAttributes(), (std::vector<AttributeId>{0, 2}));
  // Claims on the dropped attribute are gone.
  EXPECT_TRUE(r.ClaimsOn(0, 1).empty());
  // Names resolve identically.
  EXPECT_EQ(r.attribute_name(2), d.attribute_name(2));
}

TEST(DatasetTest, RestrictToNothingYieldsEmptyClaims) {
  Dataset d = Table1Dataset();
  Dataset r = d.RestrictToAttributes({});
  EXPECT_EQ(r.num_claims(), 0u);
  EXPECT_TRUE(r.DataItems().empty());
}

TEST(DatasetTest, RestrictToObjectsKeepsIdSpace) {
  Dataset d = Table1Dataset();
  Dataset r = d.RestrictToObjects({0});  // FB only
  EXPECT_EQ(r.num_objects(), 2);         // name table untouched
  EXPECT_EQ(r.num_claims(), 9u);
  EXPECT_EQ(r.ActiveObjects(), (std::vector<ObjectId>{0}));
  EXPECT_TRUE(r.ClaimsOn(1, 0).empty());  // CS claims gone
  EXPECT_EQ(r.object_name(1), d.object_name(1));
}

TEST(DatasetTest, ActiveObjectsSkipsUnclaimed) {
  DatasetBuilder b;
  b.AddObject("ghost");
  ASSERT_TRUE(b.AddClaim("s", "real", "a", Value(int64_t{1})).ok());
  Dataset d = b.Build().MoveValue();
  EXPECT_EQ(d.ActiveObjects(), (std::vector<ObjectId>{1}));
}

TEST(DatasetTest, ActiveAttributesSkipsUnclaimed) {
  DatasetBuilder b;
  b.AddAttribute("never-used");
  ASSERT_TRUE(b.AddClaim("s", "o", "used", Value(int64_t{1})).ok());
  Dataset d = b.Build().MoveValue();
  EXPECT_EQ(d.ActiveAttributes(), (std::vector<AttributeId>{1}));
}

TEST(DatasetTest, SummaryMentionsCounts) {
  Dataset d = Table1Dataset();
  std::string s = d.Summary();
  EXPECT_NE(s.find("3 sources"), std::string::npos);
  EXPECT_NE(s.find("18 observations"), std::string::npos);
}

TEST(DatasetTest, DataItemsSortedObjectMajor) {
  Dataset d = Table1Dataset();
  const auto& items = d.DataItems();
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_LT(items[i - 1], items[i]);
  }
}

}  // namespace
}  // namespace tdac
