#include "common/csv.h"

#include <string>

#include <gtest/gtest.h>

#include "test_util.h"

namespace tdac {
namespace {

TEST(CsvWriterTest, PlainFields) {
  CsvWriter w;
  w.WriteRow({"a", "b", "c"});
  EXPECT_EQ(w.contents(), "a,b,c\n");
}

TEST(CsvWriterTest, QuotesSpecialCharacters) {
  CsvWriter w;
  w.WriteRow({"a,b", "say \"hi\"", "line\nbreak"});
  EXPECT_EQ(w.contents(), "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(CsvParseTest, Basic) {
  auto rows = ParseCsv("a,b\nc,d\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvParseTest, MissingTrailingNewline) {
  auto rows = ParseCsv("a,b\nc,d");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(CsvParseTest, CrLf) {
  auto rows = ParseCsv("a,b\r\nc,d\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][1], "b");
}

TEST(CsvParseTest, BareCrEndsRow) {
  // A lone CR (classic-Mac line ending) terminates the row; it must not
  // silently disappear so that "a\rb" reads back as "ab".
  auto rows = ParseCsv("a\rb");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"b"}));
}

TEST(CsvParseTest, BareCrDocument) {
  auto rows = ParseCsv("a,b\rc,d\r");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvParseTest, CrLfIsOneTerminator) {
  // CRLF must not produce a phantom empty row between the CR and the LF.
  auto rows = ParseCsv("a\r\n\r\nb\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{""}));
  EXPECT_EQ((*rows)[2], (std::vector<std::string>{"b"}));
}

TEST(CsvParseTest, CrInsideQuotesIsContent) {
  auto rows = ParseCsv("\"a\rb\",c\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a\rb", "c"}));
}

TEST(CsvParseTest, QuotedFieldsRoundTrip) {
  CsvWriter w;
  std::vector<std::string> original{"plain", "with,comma", "with\"quote",
                                    "multi\nline", ""};
  w.WriteRow(original);
  auto rows = ParseCsv(w.contents());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], original);
}

TEST(CsvParseTest, UnterminatedQuoteFails) {
  auto rows = ParseCsv("\"oops");
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvParseTest, EmptyDocument) {
  auto rows = ParseCsv("");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(CsvParseTest, CustomDelimiter) {
  auto rows = ParseCsv("a;b\n", ';');
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
}

TEST(CsvFileTest, WriteReadRoundTrip) {
  testutil::ScratchDir scratch;
  const std::string path = scratch.path() + "/tdac_csv_test.csv";
  CsvWriter w;
  w.WriteRow({"h1", "h2"});
  w.WriteRow({"1", "two, three"});
  ASSERT_TRUE(WriteFile(path, w.contents()).ok());
  auto rows = ReadCsvFile(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1][1], "two, three");
}

TEST(CsvFileTest, MissingFileFails) {
  auto r = ReadCsvFile("/nonexistent/definitely/not/here.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvLineTrackingTest, RowsRecordTheirStartingLine) {
  auto doc = ParseCsvWithLines("h1,h2\na,b\nc,d\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 3u);
  ASSERT_EQ(doc->row_lines.size(), 3u);
  EXPECT_EQ(doc->row_lines[0], 1u);
  EXPECT_EQ(doc->row_lines[1], 2u);
  EXPECT_EQ(doc->row_lines[2], 3u);
}

TEST(CsvLineTrackingTest, QuotedNewlinesAdvanceThePhysicalLine) {
  // Row 2 spans physical lines 2-3 (embedded newline); row 3 therefore
  // starts on line 4, not 3 — exactly the divergence the line map exists
  // to capture.
  auto doc = ParseCsvWithLines("h\n\"multi\nline\"\nlast\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 3u);
  EXPECT_EQ(doc->row_lines[0], 1u);
  EXPECT_EQ(doc->row_lines[1], 2u);
  EXPECT_EQ(doc->row_lines[2], 4u);
  EXPECT_EQ(doc->rows[1][0], "multi\nline");
}

TEST(CsvLineTrackingTest, CrlfCountsAsOneLine) {
  auto doc = ParseCsvWithLines("h1,h2\r\na,b\r\nc,d\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 3u);
  EXPECT_EQ(doc->row_lines[2], 3u);
}

TEST(CsvLineTrackingTest, UnterminatedQuoteNamesItsOpeningLine) {
  auto doc = ParseCsvWithLines("h\nok\n\"never closed\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().message();
}

TEST(CsvLineTrackingTest, ParseCsvDelegatesAndAgrees) {
  const std::string text = "a,b\n\"q,uoted\",2\n";
  auto plain = ParseCsv(text);
  auto with_lines = ParseCsvWithLines(text);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(with_lines.ok());
  EXPECT_EQ(*plain, with_lines->rows);
}

}  // namespace
}  // namespace tdac
