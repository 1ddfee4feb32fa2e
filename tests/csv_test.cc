#include "common/csv.h"

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
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

TEST(CsvFileTest, DirectoryIsAnIoErrorNamingThePath) {
  // A directory opens for reading on Linux and reads as nothing; it must
  // not pass for an empty file.
  testutil::ScratchDir scratch;
  auto r = ReadFileToString(scratch.path());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find(scratch.path()), std::string::npos)
      << r.status().message();
}

TEST(CsvFileTest, ReadsEveryByte) {
  testutil::ScratchDir scratch;
  const std::string path = scratch.path() + "/bytes.bin";
  std::string bytes;
  for (int i = 0; i < 70000; ++i) bytes += static_cast<char>(i * 7);
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  auto r = ReadFileToString(path);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, bytes);
  ASSERT_TRUE(WriteFile(path, "").ok());
  r = ReadFileToString(path);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "");
}

// ForEachCsvRow's `line` argument: the 1-based physical line each row
// began on, which is what ingestion errors cite.

/// Every row ForEachCsvRow hands out, with its line.
struct ScannedRows {
  std::vector<std::vector<std::string>> rows;
  std::vector<size_t> lines;
};

Result<ScannedRows> Scan(std::string_view text) {
  ScannedRows out;
  TDAC_RETURN_NOT_OK(ForEachCsvRow(
      text, ',', [&out](std::span<const std::string_view> fields, size_t line) {
        out.rows.emplace_back(fields.begin(), fields.end());
        out.lines.push_back(line);
        return Status::OK();
      }));
  return out;
}

TEST(CsvLineTrackingTest, RowsRecordTheirStartingLine) {
  auto doc = Scan("h1,h2\na,b\nc,d\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 3u);
  ASSERT_EQ(doc->lines.size(), 3u);
  EXPECT_EQ(doc->lines[0], 1u);
  EXPECT_EQ(doc->lines[1], 2u);
  EXPECT_EQ(doc->lines[2], 3u);
}

TEST(CsvLineTrackingTest, QuotedNewlinesAdvanceThePhysicalLine) {
  // Row 2 spans physical lines 2-3 (embedded newline); row 3 therefore
  // starts on line 4, not 3 — exactly the divergence the line argument
  // exists to capture.
  auto doc = Scan("h\n\"multi\nline\"\nlast\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 3u);
  EXPECT_EQ(doc->lines[0], 1u);
  EXPECT_EQ(doc->lines[1], 2u);
  EXPECT_EQ(doc->lines[2], 4u);
  EXPECT_EQ(doc->rows[1][0], "multi\nline");
}

TEST(CsvLineTrackingTest, CrlfCountsAsOneLine) {
  auto doc = Scan("h1,h2\r\na,b\r\nc,d\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 3u);
  EXPECT_EQ(doc->lines[2], 3u);
}

TEST(CsvLineTrackingTest, UnterminatedQuoteNamesItsOpeningLine) {
  auto doc = Scan("h\nok\n\"never closed\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().message();
}

TEST(CsvLineTrackingTest, ParseCsvDelegatesAndAgrees) {
  const std::string text = "a,b\n\"q,uoted\",2\n";
  auto plain = ParseCsv(text);
  auto scanned = Scan(text);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(*plain, scanned->rows);
}

TEST(CsvRowScanTest, ReusedBuffersHoldOnlyTheCurrentRow) {
  // Field buffers are reused from row to row: a short row after a long
  // one, and empty fields after full ones, must not see stale bytes.
  auto doc = Scan("alpha,beta,gamma\nd\n,\n\"q\"\"\",\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 4u);
  EXPECT_EQ(doc->rows[0],
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_EQ(doc->rows[1], (std::vector<std::string>{"d"}));
  EXPECT_EQ(doc->rows[2], (std::vector<std::string>{"", ""}));
  EXPECT_EQ(doc->rows[3], (std::vector<std::string>{"q\"", ""}));
}

TEST(CsvRowScanTest, ErrorFromTheCallbackStopsTheScan) {
  size_t calls = 0;
  Status status = ForEachCsvRow(
      "a\nb\nc\n", ',', [&calls](std::span<const std::string_view> fields,
                                 size_t line) {
        ++calls;
        if (fields[0] == "b") {
          return Status::InvalidArgument("stop at line " +
                                         std::to_string(line));
        }
        return Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "stop at line 2");
  EXPECT_EQ(calls, 2u);
}

TEST(CsvRowScanTest, QuoteOpensAFieldOnlyAtItsStart) {
  auto doc = Scan("ab\"c,\"d\"e\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"ab\"c", "de"}));
}

TEST(CsvRowScanTest, FieldsViewTheTextUnlessAnEscapeBreaksTheRun) {
  const std::string text = "ab\"c,\"q,r\",\"x\"\"y\",\"d\"e,\"z\"\"\"\n";
  std::vector<std::string> fields;
  std::vector<bool> in_text;
  ASSERT_TRUE(ForEachCsvRow(text, ',',
                            [&](std::span<const std::string_view> row, size_t) {
                              for (std::string_view field : row) {
                                fields.emplace_back(field);
                                in_text.push_back(
                                    field.data() >= text.data() &&
                                    field.data() < text.data() + text.size());
                              }
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(fields, (std::vector<std::string>{"ab\"c", "q,r", "x\"y", "de",
                                              "z\""}));
  // A quote inside an unquoted field, a quoted field without escapes, and
  // one whose only escape ends it are runs of the text; an escape inside a
  // field, or text after a closing quote, needs a buffer.
  EXPECT_EQ(in_text, (std::vector<bool>{true, true, false, false, true}));
}

// CsvRecordCuts: scanning its pieces one after another, each from the line
// the one before it ended on, hands over exactly the rows and lines of one
// scan of the whole text, or fails with the same error.

Result<ScannedRows> ScanInPieces(std::string_view text, size_t parts) {
  ScannedRows out;
  const std::vector<size_t> bounds = CsvRecordCuts(text, ',', parts);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), text.size());
  size_t line = 1;
  for (size_t k = 0; k + 1 < bounds.size(); ++k) {
    EXPECT_TRUE(bounds[k] < bounds[k + 1] || text.empty()) << "empty piece";
    TDAC_RETURN_NOT_OK(ForEachCsvRow(
        text.substr(bounds[k], bounds[k + 1] - bounds[k]), ',',
        [&out](std::span<const std::string_view> fields, size_t row_line) {
          out.rows.emplace_back(fields.begin(), fields.end());
          out.lines.push_back(row_line);
          return Status::OK();
        },
        &line));
  }
  return out;
}

void ExpectPiecesScanAsWhole(const std::string& text) {
  const Result<ScannedRows> whole = Scan(text);
  for (size_t parts = 1; parts <= 12; ++parts) {
    const Result<ScannedRows> pieces = ScanInPieces(text, parts);
    ASSERT_EQ(pieces.ok(), whole.ok()) << parts << " parts of: " << text;
    if (!whole.ok()) {
      EXPECT_EQ(pieces.status().message(), whole.status().message());
      continue;
    }
    EXPECT_EQ(pieces->rows, whole->rows) << parts << " parts of: " << text;
    EXPECT_EQ(pieces->lines, whole->lines) << parts << " parts of: " << text;
  }
}

TEST(CsvRecordCutsTest, PiecesScanAsTheWholeText) {
  ExpectPiecesScanAsWhole("");
  ExpectPiecesScanAsWhole("a,b\nc,d\ne,f\ng,h\n");
  ExpectPiecesScanAsWhole("a\r\nb\r\nc\r\nd\r\ne\r\nf");
  ExpectPiecesScanAsWhole("h\n\"multi\nline\",x\r\nb\rc\n\"a\"\"b\",\"\"\nd\"e,f\n");
  ExpectPiecesScanAsWhole("a,\"x\r\n\ny\"\r\nb\n\"\n\n\",\"\r\"\n,\n\n");
  ExpectPiecesScanAsWhole("x\"\ny\"\n\"q\"\"\n\"\nz,\"\"\"\n\"\"\n");
  ExpectPiecesScanAsWhole("a\nb\nc\n\"never\nclosed\n,\n");
  // Seeded random texts over every token the framing cares about.
  const std::vector<std::string> tokens = {
      "a", "bc", ",", "\"", "\"\"", "\n", "\r", "\r\n", "x\"y", "\",\"", " "};
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    std::string text;
    for (uint64_t n = 1 + rng.NextBounded(60); n > 0; --n) {
      text += tokens[rng.NextBounded(tokens.size())];
    }
    ExpectPiecesScanAsWhole(text);
  }
}

TEST(CsvRecordCutsTest, CutsLandOnRecordStarts) {
  // A CRLF is never split.
  const std::string crlf = "aa\r\nbb\r\ncc\r\ndd\r\nee\r\n";
  for (size_t parts = 2; parts <= 8; ++parts) {
    const std::vector<size_t> bounds = CsvRecordCuts(crlf, ',', parts);
    for (size_t k = 1; k + 1 < bounds.size(); ++k) {
      EXPECT_EQ(crlf[bounds[k] - 1], '\n') << parts;
    }
  }
  // No cut inside a quoted field, however many lines it spans.
  const std::string quoted =
      "h\n\"" + std::string(50, '\n') + "\"\"\n" + "\"\ntail\nend\n";
  const size_t close = quoted.rfind('"');
  for (size_t parts = 2; parts <= 8; ++parts) {
    const std::vector<size_t> bounds = CsvRecordCuts(quoted, ',', parts);
    for (size_t k = 1; k + 1 < bounds.size(); ++k) {
      EXPECT_TRUE(bounds[k] == 2 || bounds[k] > close) << bounds[k];
    }
  }
  // Nothing after a quote that never closes is a record start.
  const std::string open = "h\nrow\n\"open" + std::string(100, '\n');
  EXPECT_EQ(CsvRecordCuts(open, ',', 4), (std::vector<size_t>{0, open.size()}));
  // A quote after a field's start is content and opens nothing.
  EXPECT_EQ(CsvRecordCuts("a\"b\nc\nd\"e\nf\n", ',', 4),
            (std::vector<size_t>{0, 4, 10, 12}));
  EXPECT_EQ(CsvRecordCuts("", ',', 4), (std::vector<size_t>{0, 0}));
}

}  // namespace
}  // namespace tdac
