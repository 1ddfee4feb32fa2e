#include "gen/exam.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

namespace tdac {
namespace {

TEST(ExamTest, LayoutTotals124Across9Domains) {
  auto layout = ExamDomainLayout();
  EXPECT_EQ(layout.size(), 9u);
  int total = 0;
  for (const auto& [name, n] : layout) total += n;
  EXPECT_EQ(total, 124);
  EXPECT_EQ(layout[0].first, "Math 1A");
  EXPECT_EQ(layout[1].first, "Physics");
}

TEST(ExamTest, MandatoryPrefixIs32Questions) {
  auto layout = ExamDomainLayout();
  EXPECT_EQ(layout[0].second + layout[1].second, 32);
  EXPECT_EQ(layout[0].second + layout[1].second + layout[2].second +
                layout[3].second,
            62);
}

TEST(ExamTest, ShapeMatchesConfig) {
  ExamConfig config;
  config.num_questions = 62;
  config.seed = 4;
  auto data = GenerateExam(config);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->dataset.num_sources(), 248);
  EXPECT_EQ(data->dataset.num_objects(), 1);
  EXPECT_EQ(data->dataset.num_attributes(), 62);
  EXPECT_EQ(data->truth.size(), 62u);
}

TEST(ExamTest, DcrCalibrationMatchesTable8) {
  // Paper Table 8: Exam 32 -> 81%, Exam 62 -> 55%, Exam 124 -> 36%.
  struct Case {
    int questions;
    double expected_dcr;
  };
  for (const Case& c : {Case{32, 81.0}, Case{62, 55.0}, Case{124, 36.0}}) {
    ExamConfig config;
    config.num_questions = c.questions;
    config.seed = 17;
    auto data = GenerateExam(config);
    ASSERT_TRUE(data.ok());
    EXPECT_NEAR(data->dataset.DataCoverageRate(), c.expected_dcr, 5.0)
        << c.questions << " questions";
  }
}

TEST(ExamTest, FillMissingGivesFullCoverage) {
  ExamConfig config;
  config.num_questions = 32;
  config.fill_missing = true;
  config.seed = 9;
  auto data = GenerateExam(config);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->dataset.num_claims(),
            static_cast<size_t>(248) * 32);
  EXPECT_NEAR(data->dataset.DataCoverageRate(), 100.0, 1e-9);
}

TEST(ExamTest, FilledAnswersAreFalse) {
  ExamConfig sparse;
  sparse.num_questions = 32;
  sparse.seed = 21;
  ExamConfig filled = sparse;
  filled.fill_missing = true;
  auto ds = GenerateExam(sparse);
  auto df = GenerateExam(filled);
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE(df.ok());
  // The filled dataset has strictly more claims, and overall accuracy rate
  // must drop (fills are always wrong).
  ASSERT_GT(df->dataset.num_claims(), ds->dataset.num_claims());
  auto rate = [](const ExamData& d) {
    size_t correct = 0;
    for (int32_t id : d.dataset.claim_ids()) {
      const Claim c = d.dataset.claim(static_cast<size_t>(id));
      if (c.value == *d.truth.Get(c.object, c.attribute)) ++correct;
    }
    return static_cast<double>(correct) /
           static_cast<double>(d.dataset.num_claims());
  };
  EXPECT_LT(rate(*df), rate(*ds));
}

TEST(ExamTest, DomainPartitionCoversAllQuestions) {
  ExamConfig config;
  config.num_questions = 62;
  auto data = GenerateExam(config);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->domain_partition.num_attributes(), 62u);
  EXPECT_EQ(data->domain_partition.num_groups(), 4u);  // 2 mandatory + 2 choice
}

TEST(ExamTest, DeterministicForSeed) {
  ExamConfig config;
  config.num_questions = 32;
  config.seed = 33;
  auto a = GenerateExam(config);
  auto b = GenerateExam(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->dataset.num_claims(), b->dataset.num_claims());
  EXPECT_EQ(a->ability, b->ability);
}

TEST(ExamTest, FalseRangeControlsDistinctWrongAnswers) {
  ExamConfig config;
  config.num_questions = 10;
  config.false_range = 3;
  config.seed = 2;
  auto data = GenerateExam(config);
  ASSERT_TRUE(data.ok());
  // Per question, at most 1 + false_range distinct values can appear.
  for (uint64_t key : data->dataset.DataItems()) {
    std::set<std::string> distinct;
    for (int32_t idx :
         data->dataset.ClaimsOn(ObjectFromKey(key), AttributeFromKey(key))) {
      distinct.insert(data->dataset.claim(static_cast<size_t>(idx))
                          .value.ToString());
    }
    EXPECT_LE(distinct.size(), 4u);
  }
}

TEST(ExamTest, MisconceptionRateOneConcentratesErrors) {
  ExamConfig config;
  config.num_questions = 20;
  config.misconception_rate = 1.0;
  config.false_range = 50;
  config.seed = 31;
  auto data = GenerateExam(config);
  ASSERT_TRUE(data.ok());
  // Every question shows at most 2 distinct values: the correct answer and
  // the canonical misconception.
  for (uint64_t key : data->dataset.DataItems()) {
    std::set<std::string> distinct;
    for (int32_t idx :
         data->dataset.ClaimsOn(ObjectFromKey(key), AttributeFromKey(key))) {
      distinct.insert(
          data->dataset.claim(static_cast<size_t>(idx)).value.ToString());
    }
    EXPECT_LE(distinct.size(), 2u);
  }
}

TEST(ExamTest, DifficultySpreadControlsHardQuestions) {
  // With zero spread every question has the same expected correctness;
  // with a large spread, per-question correctness rates fan out.
  auto correctness_rates = [](double spread, uint64_t seed) {
    ExamConfig config;
    config.num_questions = 32;
    config.difficulty_spread = spread;
    config.seed = seed;
    auto data = GenerateExam(config).MoveValue();
    std::vector<double> rates;
    for (uint64_t key : data.dataset.DataItems()) {
      ObjectId o = ObjectFromKey(key);
      AttributeId a = AttributeFromKey(key);
      size_t correct = 0;
      const auto& claims = data.dataset.ClaimsOn(o, a);
      for (int32_t idx : claims) {
        if (data.dataset.claim(static_cast<size_t>(idx)).value ==
            *data.truth.Get(o, a)) {
          ++correct;
        }
      }
      if (!claims.empty()) {
        rates.push_back(static_cast<double>(correct) /
                        static_cast<double>(claims.size()));
      }
    }
    double mean = 0.0;
    for (double r : rates) mean += r;
    mean /= static_cast<double>(rates.size());
    double var = 0.0;
    for (double r : rates) var += (r - mean) * (r - mean);
    return var / static_cast<double>(rates.size());
  };
  EXPECT_GT(correctness_rates(0.45, 7), correctness_rates(0.0, 7) * 2);
}

TEST(ExamTest, RejectsBadConfig) {
  ExamConfig config;
  config.num_questions = 0;
  EXPECT_FALSE(GenerateExam(config).ok());
  config.num_questions = 200;
  EXPECT_FALSE(GenerateExam(config).ok());
  config.num_questions = 10;
  config.false_range = 0;
  EXPECT_FALSE(GenerateExam(config).ok());
}

}  // namespace
}  // namespace tdac
