#include "partition/attribute_partition.h"

#include <gtest/gtest.h>

namespace tdac {
namespace {

TEST(AttributePartitionTest, FromGroupsCanonicalizes) {
  auto p = AttributePartition::FromGroups({{5, 3}, {0, 2}, {1, 4}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_groups(), 3u);
  // Groups sorted internally and ordered by smallest element.
  EXPECT_EQ(p->group(0), (std::vector<AttributeId>{0, 2}));
  EXPECT_EQ(p->group(1), (std::vector<AttributeId>{1, 4}));
  EXPECT_EQ(p->group(2), (std::vector<AttributeId>{3, 5}));
}

TEST(AttributePartitionTest, RejectsOverlapAndEmptyGroups) {
  EXPECT_FALSE(AttributePartition::FromGroups({{0, 1}, {1, 2}}).ok());
  EXPECT_FALSE(AttributePartition::FromGroups({{0}, {}}).ok());
}

TEST(AttributePartitionTest, FromAssignment) {
  auto p = AttributePartition::FromAssignment({0, 1, 2, 3}, {1, 0, 1, 0});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_groups(), 2u);
  EXPECT_EQ(p->group(0), (std::vector<AttributeId>{0, 2}));
  EXPECT_EQ(p->group(1), (std::vector<AttributeId>{1, 3}));
}

TEST(AttributePartitionTest, FromAssignmentRejectsMismatch) {
  EXPECT_FALSE(AttributePartition::FromAssignment({0, 1}, {0}).ok());
  EXPECT_FALSE(AttributePartition::FromAssignment({0, 1}, {0, -1}).ok());
}

TEST(AttributePartitionTest, ToStringIsPaperStyleOneBased) {
  auto p = AttributePartition::FromGroups({{0, 1}, {3, 5}, {2, 4}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(), "[(1,2), (3,5), (4,6)]");
}

TEST(AttributePartitionTest, ParseRoundTrip) {
  const char* texts[] = {
      "[(1,2),(4,6),(3,5)]",
      "[(2,5), (1,4), (3,6)]",
      "[(1), (2), (3), (4, 6), (5)]",
      "[(1,6,3),(2,4,5)]",
  };
  for (const char* text : texts) {
    auto p = AttributePartition::Parse(text);
    ASSERT_TRUE(p.ok()) << text;
    auto again = AttributePartition::Parse(p->ToString());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*p, *again) << text;
  }
}

TEST(AttributePartitionTest, ParseRejectsGarbage) {
  EXPECT_FALSE(AttributePartition::Parse("1,2,3").ok());
  EXPECT_FALSE(AttributePartition::Parse("[(1,2").ok());
  EXPECT_FALSE(AttributePartition::Parse("[(a,b)]").ok());
  EXPECT_FALSE(AttributePartition::Parse("[(0)]").ok());  // 1-based
  EXPECT_FALSE(AttributePartition::Parse("[()]").ok());
  // Numbers past INT_MAX used to wrap: the first parsed as [(1)], the
  // second as attribute 1215752191.
  EXPECT_FALSE(AttributePartition::Parse("[(4294967297)]").ok());
  EXPECT_FALSE(AttributePartition::Parse("[(99999999999)]").ok());
  EXPECT_FALSE(AttributePartition::Parse("[(2147483648)]").ok());
}

TEST(AttributePartitionTest, GroupOfAndAttributes) {
  auto p = AttributePartition::Parse("[(1,2),(3,5),(4,6)]").MoveValue();
  EXPECT_EQ(p.GroupOf(0), 0);
  EXPECT_EQ(p.GroupOf(4), 1);
  EXPECT_EQ(p.GroupOf(5), 2);
  EXPECT_EQ(p.GroupOf(99), -1);
  EXPECT_EQ(p.Attributes(), (std::vector<AttributeId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(p.num_attributes(), 6u);
}

TEST(AttributePartitionTest, SingleWrapsEverything) {
  AttributePartition p = AttributePartition::Single({2, 0, 1});
  EXPECT_EQ(p.num_groups(), 1u);
  EXPECT_EQ(p.group(0), (std::vector<AttributeId>{0, 1, 2}));
}

TEST(AttributePartitionTest, EqualityIgnoresConstructionOrder) {
  auto a = AttributePartition::FromGroups({{1, 0}, {2, 3}}).MoveValue();
  auto b = AttributePartition::FromGroups({{3, 2}, {0, 1}}).MoveValue();
  EXPECT_EQ(a, b);
  auto c = AttributePartition::FromGroups({{0}, {1}, {2, 3}}).MoveValue();
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace tdac
