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
/// row count — error messages should cite it, not the row index. `fields`
/// is only valid during the call: the scanner reuses its buffers for the
/// next row.
using CsvRowFn =
    std::function<Status(std::span<const std::string> fields, size_t line)>;

/// Scans `text` row by row, calling `on_row` once per row as soon as the
/// row ends; no document is built. CRLF counts as one row end and a bare CR
/// ends a row too; quoted fields may span lines; a quote opens a field only
/// at the field's start. A non-OK Status from `on_row` stops the scan and
/// is returned. Text ending inside a quoted field fails with
/// InvalidArgument naming the line the quote opened on.
[[nodiscard]] Status ForEachCsvRow(std::string_view text, char delimiter,
                                   const CsvRowFn& on_row);

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
