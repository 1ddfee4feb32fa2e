#ifndef TDAC_COMMON_CSV_H_
#define TDAC_COMMON_CSV_H_

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tdac {

/// \brief Minimal RFC-4180-style CSV support used by the dataset I/O layer.
///
/// Fields containing the delimiter, double quotes, or newlines are quoted;
/// embedded quotes are doubled. Only '\n' record separators are produced;
/// "\r\n", "\n" and a bare "\r" are all accepted on input.
class CsvWriter {
 public:
  explicit CsvWriter(char delimiter = ',') : delimiter_(delimiter) {}

  /// Appends one record to the in-memory buffer.
  void WriteRow(const std::vector<std::string>& fields);

  /// Returns everything written so far.
  const std::string& contents() const { return buffer_; }

 private:
  char delimiter_;
  std::string buffer_;
};

/// Receives one CSV row: its fields, and the 1-based physical line the row
/// began on. Quoted fields may span lines, so the line can run ahead of the
/// row count — error messages should cite it, not the row index. A field
/// that is one contiguous run of the text (every unquoted field, and a
/// quoted one without a `""` escape) views the scanned text itself; any
/// other field views a buffer the scanner reuses for the next row. So
/// `fields` is only valid during the call.
using CsvRowFn = std::function<Status(std::span<const std::string_view> fields,
                                      size_t line)>;

/// Scans `text` row by row, calling `on_row` once per row as soon as the
/// row ends; no document is built. CRLF counts as one row end and a bare CR
/// ends a row too; quoted fields may span lines; a quote opens a field only
/// at the field's start. A non-OK Status from `on_row` stops the scan and
/// is returned. Text ending inside a quoted field fails with
/// InvalidArgument naming the line the quote opened on. Lines are counted
/// from `*line` (from 1 when `line` is null); after a scan that returns OK,
/// `*line` is the line the text ended on, which is where a scan of the text
/// that follows it starts.
[[nodiscard]] Status ForEachCsvRow(std::string_view text, char delimiter,
                                   const CsvRowFn& on_row,
                                   size_t* line = nullptr);

/// Cuts `text` into at most `parts` byte ranges of about equal size, each
/// beginning at a record start: a position where ForEachCsvRow's scan of
/// the whole text begins a row. The pre-scan follows the scanner's rules:
/// a quote opens a field only at the field's start, a quoted field may
/// span lines, and a CRLF is never split. Returns the range bounds — 0,
/// the cuts ascending, text.size() — so scanning each range on its own
/// hands over exactly the rows of one scan of `text`, in order. Fewer
/// ranges come back when the text has fewer record starts (a short text,
/// or one that ends inside a quoted field).
std::vector<size_t> CsvRecordCuts(std::string_view text, char delimiter,
                                  size_t parts);

/// Parses a full CSV document into rows of fields (ForEachCsvRow,
/// collected).
[[nodiscard]]
Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text,
                                                       char delimiter = ',');

/// Reads and parses a CSV file from disk.
[[nodiscard]] Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path, char delimiter = ',');

/// Writes `text` to `path`, overwriting. Flush and close are checked, so
/// short writes and full disks surface as a Status — but the write is NOT
/// atomic: a crash mid-write leaves a torn file. Production output paths
/// use AtomicWriteFile (common/io.h) instead; this stays for scratch files
/// in tests.
[[nodiscard]] Status WriteFile(const std::string& path, std::string_view text);

/// Reads an entire regular file into a string. Any other path — missing,
/// unreadable, a directory, a FIFO — fails with IoError naming it.
[[nodiscard]] Result<std::string> ReadFileToString(const std::string& path);

}  // namespace tdac

#endif  // TDAC_COMMON_CSV_H_
