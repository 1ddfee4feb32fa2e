#include "eval/series.h"

#include <gtest/gtest.h>

#include "common/csv.h"
#include "test_util.h"

namespace tdac {
namespace {

TEST(FigureSeriesTest, CsvHasSeriesColumnsAndXRows) {
  FigureSeries fig("figure1", "dataset", "accuracy");
  fig.Add("Accu", "DS1", 0.838);
  fig.Add("TD-AC", "DS1", 0.93);
  fig.Add("Accu", "DS2", 0.828);
  fig.Add("TD-AC", "DS2", 0.94);
  auto rows = ParseCsv(fig.ToCsv()).MoveValue();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"dataset", "Accu", "TD-AC"}));
  EXPECT_EQ(rows[1][0], "DS1");
  EXPECT_EQ(rows[1][1], "0.8380");
  EXPECT_EQ(rows[2][2], "0.9400");
}

TEST(FigureSeriesTest, MissingCellsStayEmpty) {
  FigureSeries fig("f", "x", "y");
  fig.Add("a", "p", 1.0);
  fig.Add("b", "q", 2.0);
  auto rows = ParseCsv(fig.ToCsv()).MoveValue();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][2], "");  // series b has no point at x=p
  EXPECT_EQ(rows[2][1], "");  // series a has no point at x=q
}

TEST(FigureSeriesTest, InsertionOrderPreserved) {
  FigureSeries fig("f", "x", "y");
  fig.Add("z-series", "later", 1.0);
  fig.Add("a-series", "earlier", 2.0);
  auto rows = ParseCsv(fig.ToCsv()).MoveValue();
  // Column order follows first appearance, not lexicographic order.
  EXPECT_EQ(rows[0][1], "z-series");
  EXPECT_EQ(rows[1][0], "later");
}

TEST(FigureSeriesTest, GnuplotReferencesEveryColumn) {
  FigureSeries fig("figure9", "dataset", "accuracy");
  fig.Add("A", "x", 0.5);
  fig.Add("B", "x", 0.6);
  fig.Add("C", "x", 0.7);
  std::string gp = fig.ToGnuplot("figure9.csv");
  EXPECT_NE(gp.find("using 2:xtic(1)"), std::string::npos);
  EXPECT_NE(gp.find("using 3"), std::string::npos);
  EXPECT_NE(gp.find("using 4"), std::string::npos);
  EXPECT_NE(gp.find("set output 'figure9.png'"), std::string::npos);
}

TEST(FigureSeriesTest, WriteToCreatesBothFiles) {
  FigureSeries fig("series_test_fig", "x", "y");
  fig.Add("s", "a", 0.1);
  testutil::ScratchDir scratch;
  const std::string& dir = scratch.path();
  ASSERT_TRUE(fig.WriteTo(dir).ok());
  auto csv = ReadFileToString(dir + "/series_test_fig.csv");
  auto gp = ReadFileToString(dir + "/series_test_fig.gp");
  EXPECT_TRUE(csv.ok());
  EXPECT_TRUE(gp.ok());
}

TEST(FigureSeriesTest, WriteToBadDirFails) {
  FigureSeries fig("f", "x", "y");
  fig.Add("s", "a", 0.1);
  EXPECT_FALSE(fig.WriteTo("/definitely/not/a/dir").ok());
}

}  // namespace
}  // namespace tdac
